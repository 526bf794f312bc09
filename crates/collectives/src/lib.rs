//! # simccl — NCCL-like collectives over the simulated fabric
//!
//! The baseline communication substrate of the reproduction: [`all_to_all`],
//! the `all_to_all_single` the paper's baseline invokes at the end of the
//! embedding-table forward pass (and the backward-pass extension runs in
//! reverse).
//!
//! The collective is **timed**: it simulates the wire traffic of a byte
//! matrix on the [`gpusim::Machine`], every chunk meeting the fault plan as
//! its [`Faults`] says, and returns a [`WorkHandle`] with per-device
//! completion times — the analogue of the async work object PyTorch returns
//! when `async_op=True`. The functional data movement is the caller's (the
//! baseline's is `emb_retrieval::backend::exchange_and_unpack`).
//!
//! Algorithms:
//!
//! * [`Algorithm::Direct`] — pairwise peer-to-peer transfers, what NCCL uses
//!   on an NVLink crossbar (the paper's testbed).
//! * [`Algorithm::Ring`] — neighbor forwarding in `n−1` steps, the classic
//!   fallback on sparse topologies.

#![warn(missing_docs)]

mod alltoall;
pub mod compat;
mod config;
mod work;

pub use alltoall::all_to_all;
#[allow(deprecated)]
pub use compat::all_to_all_timed;
pub use config::{Algorithm, CollectiveConfig};
pub use work::WorkHandle;

/// The shared fault taxonomy and fault handling, re-exported so collective
/// callers need not depend on `gpusim` directly.
pub use gpusim::{FabricError, Faults};

use desim::Dur;

pub(crate) fn d2d_copy_time(bytes: u64, mem_bw: f64) -> Dur {
    // Device-local copy reads and writes every byte.
    Dur::from_secs_f64(2.0 * bytes as f64 / mem_bw)
}
