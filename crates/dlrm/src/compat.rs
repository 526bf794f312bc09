//! The name kept only because `benchmark/` uses it, re-exported at its old
//! path; new code names the backend [`Backend`].

use emb_retrieval::backend::Backend;

/// The retrieval backend feeding the executed engine, by its old name.
#[deprecated(note = "pinned by benchmark/; use emb_retrieval::backend::Backend")]
pub type EngineBackend = Backend;
