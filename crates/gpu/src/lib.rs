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
//! use gpusim::{Faults, GpuSpec, KernelShape, Machine, MachineConfig, Send};
//! use desim::SimTime;
//!
//! let mut m = Machine::new(MachineConfig::dgx_v100(2));
//! // A gather kernel of 1024 equal blocks, each at its wave-model time.
//! let (shape, spec) = (KernelShape::memory_bound(1024, 64 * 1024), GpuSpec::v100());
//! let resident = KernelShape::effective_resident(shape.blocks, spec.max_resident_blocks());
//! let blocks = vec![shape.block_time(&spec, resident); 1024];
//! let run = m.run_kernel_varied(0, &blocks, SimTime::ZERO);
//! assert_eq!(run.interval.end, run.interval.start + shape.duration(&spec));
//! let s = Send { src: 0, dst: 1, payload: 1 << 20, messages: 1, ready: run.interval.end,
//!                efficiency: 1.0, faults: Faults::Ignore };
//! let xfer = m.transmit(&s)?.interval;
//! assert!(xfer.end > run.interval.end);
//! # Ok::<(), gpusim::FabricError>(())
//! ```

#![warn(missing_docs)]

pub mod compat;
mod fault;
mod kernel;
mod machine;
mod spec;
mod stream;
mod topology;
mod trace;

pub use fault::{
    FabricError, FaultKind, FaultPlan, FaultSpec, FaultWindow, Faults, LinkState, MessageFault,
    RetryPolicy,
};
pub use kernel::{KernelRun, KernelShape};
pub use machine::{Delivery, Machine, MachineConfig, Send, SendTrain, TrafficStats};
pub use spec::GpuSpec;
pub use stream::{Event, StageChunk, StreamId};
pub use topology::{LinkSpec, NoLink, Topology};
pub use trace::{TraceEvent, TraceLog};
