//! # simccl — NCCL-like collectives over the simulated fabric
//!
//! The baseline communication substrate of the reproduction. It implements
//! the collective calls a PyTorch + NCCL DLRM uses — most importantly
//! [`all_to_all_single`], which the paper's
//! baseline invokes at the end of the embedding-table forward pass (and the
//! backward-pass extension runs in reverse).
//!
//! Every collective is **functional and timed at once**: it really moves the
//! `f32` buffers (so outputs can be checked against references) and it
//! simulates the wire traffic on the [`gpusim::Machine`], returning a
//! [`WorkHandle`] with per-device completion times — the analogue of the
//! async work object PyTorch returns when `async_op=True`.
//!
//! Two algorithms are provided:
//!
//! * [`Algorithm::Direct`] — pairwise peer-to-peer transfers, what NCCL uses
//!   on an NVLink crossbar (the paper's testbed).
//! * [`Algorithm::Ring`] — neighbor forwarding in `n−1` steps, the classic
//!   fallback on sparse topologies.

#![warn(missing_docs)]

mod alltoall;
mod config;
mod work;

pub use alltoall::{all_to_all_single, all_to_all_timed, all_to_all_varied, try_all_to_all_timed};
pub use config::{Algorithm, CollectiveConfig};
pub use work::WorkHandle;

/// The shared fault taxonomy and retry schedule, re-exported so collective
/// callers need not depend on `gpusim` directly.
pub use gpusim::{FabricError, RetryPolicy};

use desim::Dur;

/// Size of one `f32` element on the wire.
pub const ELEM_BYTES: u64 = 4;

pub(crate) fn d2d_copy_time(bytes: u64, mem_bw: f64) -> Dur {
    // Device-local copy reads and writes every byte.
    Dur::from_secs_f64(2.0 * bytes as f64 / mem_bw)
}
