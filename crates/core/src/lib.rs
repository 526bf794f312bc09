//! # emb-retrieval — multi-GPU embedding retrieval with PGAS communication
//!
//! The paper's primary contribution, reimplemented in Rust over a simulated
//! multi-GPU machine. An embedding (EMB) layer forward pass turns a batch of
//! sparse-feature bags into dense embedding rows:
//!
//! 1. **hash** each raw sparse index into a table row (`hash`),
//! 2. **look up** the rows in the feature's embedding table (`table`),
//! 3. **pool** each bag's rows into one output row (`pooling`),
//! 4. **convert the layout** from model parallelism (tables sharded across
//!    GPUs) to data parallelism (each GPU holds its mini-batch of *all*
//!    features) — the communication the paper optimizes.
//!
//! One [`backend::Backend`] implements step 4, over one of two exchanges:
//!
//! * [`backend::Backend::baseline`] — the de-facto PyTorch scheme: lookup
//!   kernel → `all_to_all_single` (NCCL-style) → synchronize → unpack.
//! * [`backend::Backend::pgas`] — the paper's scheme: the lookup kernel
//!   writes each pooled row **directly into the remote GPU's output buffer**
//!   with one-sided 256 B messages the moment the row is ready, eliminating
//!   the unpack step and overlapping communication with computation.
//!
//! Both are *functional* (they produce real `f32` outputs you can
//! check against [`reference::reference_forward`]) and *timed* (they drive a
//! [`gpusim::Machine`] and report the paper's three runtime components:
//! computation, communication, sync + unpack).
//!
//! The [`backward`] module implements the paper's §V future-work extension:
//! the EMB backward pass with gradient scatter via collectives vs one-sided
//! remote atomic adds.

#![warn(missing_docs)]

pub mod arena;
pub mod backend;
pub mod backward;
mod batch;
mod cache;
mod config;
mod hash;
pub mod kernels;
pub mod memo;
mod plan;
mod pooling;
pub mod reference;
pub mod rowwise;
mod sharding;
mod table;
mod timing;

pub use arena::BatchArena;
pub use batch::{BatchAssemblyError, IndexDistribution, SparseBatch, SparseBatchSpec};
pub use cache::{HotCachePlanner, HotReplicas, HotRowCache, IndexDedupMap};
pub use config::EmbLayerConfig;
pub use hash::{hash_to_row, IndexHasher};
pub use plan::{BlockCacheStats, BlockPlan, DevicePlan, ForwardPlan, ImportedBag, PlanInput};
pub use pooling::PoolingOp;
pub use sharding::{InputPartition, Sharding};
pub use table::{EmbeddingShard, EmbeddingTableSpec, NotResident};
pub use timing::{RunReport, TimeBreakdown};
