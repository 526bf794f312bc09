//! # dlrm-model — the Deep Learning Recommendation Model
//!
//! The application substrate of the reproduction (paper §II, Fig. 1): a full
//! DLRM whose embedding layer is served by either retrieval backend.
//!
//! Following the **paper's** naming (which is flipped relative to the Meta
//! reference code): dense features feed the *top* MLP while sparse features
//! feed the embedding layer; their outputs meet in the feature-interaction
//! layer (pairwise dot products + concatenation), whose output feeds the
//! *bottom* MLP and finally a sigmoid click-probability head.
//!
//! The multi-GPU inference pipeline (paper Fig. 4) runs the top MLP
//! data-parallel and the EMB layer model-parallel, overlapping the two, and
//! measures the paper's quantity of interest — the EMB retrieval stage plus
//! its communication — inside a real end-to-end forward pass.

#![warn(missing_docs)]

pub mod compat;
mod data;
mod engine;
mod interaction;
mod mlp;
mod model;
mod pipeline;

#[allow(deprecated)]
pub use compat::EngineBackend;
pub use data::DenseBatch;
pub use engine::{ExecutedReport, PipelineEngine};
pub use interaction::interact;
pub use mlp::{Linear, Mlp};
pub use model::{Dlrm, DlrmConfig};
pub use pipeline::{BatchCosts, InferencePipeline, PipelineReport, StageDurations};
