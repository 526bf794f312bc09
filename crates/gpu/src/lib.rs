//! # gpusim — a deterministic simulated multi-GPU machine
//!
//! This crate stands in for the 4× V100 NVLink DGX used in the paper's
//! evaluation. It models the three things the paper's results hinge on:
//!
//! 1. **Kernel execution time** — embedding retrieval is memory-bound, so a
//!    kernel's duration is governed by the bytes it moves through HBM, by how
//!    many thread blocks are resident (occupancy), and by a latency floor
//!    when too few blocks are in flight to hide DRAM latency (this floor is
//!    what makes the paper's strong-scaling curve go flat beyond 2 GPUs).
//! 2. **Link-level communication** — every ordered GPU pair has a link with
//!    bandwidth, base latency and a **per-message header cost**; messages are
//!    serialized FIFO per link. Collectives send few large messages; the
//!    PGAS backend sends many 256 B messages spread over the kernel — both
//!    styles fall out of the same link model.
//! 3. **Control-path overheads** — kernel launch, stream synchronization and
//!    collective-call trigger latencies, which dominate at small batch sizes
//!    (paper §III-A, challenge 3).
//!
//! Everything is driven analytically through [`desim`] resources, so runs
//! are deterministic and fast; per-link traffic is recorded into
//! [`desim::TimeSeries`] buckets to regenerate the paper's Figures 7 and 10.
//!
//! ```
//! use gpusim::{Machine, MachineConfig, KernelShape};
//! use desim::SimTime;
//!
//! let mut m = Machine::new(MachineConfig::dgx_v100(2));
//! let run = m.run_kernel(0, KernelShape::memory_bound(1024, 64 * 1024), SimTime::ZERO);
//! let xfer = m.send(0, 1, 1 << 20, 1, run.interval.end);
//! assert!(xfer.end > run.interval.end);
//! ```

#![warn(missing_docs)]

mod fault;
mod kernel;
mod machine;
mod spec;
mod stream;
mod topology;
mod trace;

pub use fault::{
    FabricError, FaultEvent, FaultKind, FaultPlan, FaultSpec, FaultWindow, LinkState, MessageFault,
    RetryPolicy,
};
pub use kernel::{KernelRun, KernelShape};
pub use machine::{Machine, MachineConfig, SendTrain, TrafficStats};
pub use spec::GpuSpec;
pub use stream::{Event, StageChunk, StreamId};
pub use topology::{LinkSpec, NoLink, Topology};
pub use trace::{TraceEvent, TraceLog};
