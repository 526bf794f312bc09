//! # pgas-rt — PGAS one-sided communication runtime
//!
//! The Rust stand-in for the NVSHMEM-style layer the paper's fused kernel
//! uses: a **symmetric heap** replicated across PEs (GPUs), **one-sided**
//! `put`/`get`/`atomic_add` operations issued from inside a running kernel,
//! **warp coalescing** of contiguous stores into wire messages, and the
//! `quiet`/`fence`/`barrier_all` completion semantics.
//!
//! Functional state (the actual `f32` values) lives in [`SymmetricHeap`];
//! wire timing flows through [`gpusim::Machine`] via [`OneSided`]. The two
//! are deliberately separate: correctness is checkable exactly, while timing
//! follows the calibrated link model.
//!
//! [`GatewayPut`] implements the paper's §V multi-node extension (following
//! the SC'22 "Getting CPUs out of the way" design): instead of writing each
//! embedding row straight to a PE on another node, rows are staged in a
//! per-destination-node buffer and flushed as one large message when a size
//! or age threshold ([`AggregatorConfig`]) is hit — trading a little latency
//! for far fewer headers on high-latency inter-node links.
//!
//! ```
//! use pgas_rt::SymmetricHeap;
//!
//! let mut heap = SymmetricHeap::new(2);
//! let seg = heap.alloc(4);
//! heap.put(seg, 1, &[7.0, 8.0], /*pe=*/1); // one-sided write into PE 1
//! assert_eq!(heap.segment(seg, 1), &[0.0, 7.0, 8.0, 0.0]);
//! ```

#![warn(missing_docs)]

mod coalesce;
pub mod compat;
mod gateway;
mod heap;
mod ops;

pub use coalesce::{coalesce_rows, coalesce_rows_many, CoalescedBatch};
pub use gateway::{AggregatorConfig, GatewayConfig, GatewayPut};
pub use heap::{SegmentId, SymmetricHeap};
pub use ops::{OneSided, PgasConfig, BARRIER_OVERHEAD, ISSUE_OVERHEAD, QUIET_OVERHEAD};

/// The shared fault taxonomy, fault handling and delivery record,
/// re-exported so PGAS callers need not depend on `gpusim` directly.
pub use gpusim::{Delivery, FabricError, Faults};
