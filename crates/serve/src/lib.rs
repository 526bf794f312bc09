//! # emb-serve — deterministic online serving for embedding retrieval
//!
//! The paper's experiments replay pre-built batches in a closed loop; a
//! production recommender instead faces an *open-loop* arrival process:
//! requests show up on their own schedule, queue, get micro-batched, and
//! must come back within a latency SLO. This crate adds that regime on the
//! simulated clock, end to end deterministic for a fixed seed:
//!
//! * [`RequestGenerator`] — seeded open-loop arrivals (Poisson or bursty
//!   ON/OFF), each request carrying a handle to the per-feature bag sizes of
//!   one sample of the workload's synthetic input distribution (uniform or
//!   Zipf key skew, via [`emb_retrieval::EmbLayerConfig`]) in a shared pool.
//! * [`MicroBatcher`] — admission queue + dynamic batcher: a batch closes
//!   when it reaches `max_batch` requests or when its oldest request has
//!   waited `close_deadline`, whichever comes first; arrivals beyond
//!   `queue_bound` are shed; requests that would exceed `request_timeout`
//!   by close are dropped and counted.
//! * [`EmbServer`] — drives the existing retrieval backends (baseline
//!   collective, PGAS fused, resilient PGAS) one closed batch at a time
//!   through `emb-retrieval`'s per-batch surface, optionally extending each
//!   batch into a full DLRM inference pass.
//! * [`LatencyStats`] / [`ServeReport`] — per-request end-to-end latency
//!   (queue + batch + compute + comms), p50/p99/p999, shed/timeout counts.
//! * [`Controller`] — the EXT-13 adaptive control plane: per-tick circuit
//!   breakers, a PGAS→Resilient→Baseline failover ladder with fail-back,
//!   dynamic micro-batch deadlines, graduated load shedding, and online
//!   hot-cache resizing, all driven from the run's own books (queue,
//!   latency, retries, hit rate, fault state) and bit-deterministic for a
//!   fixed seed ([`EmbServer::run_controlled`]).
//!
//! Because batches closed from queued requests execute through the very
//! same per-batch functions as the closed-loop experiments, a full batch of
//! canonical composition costs exactly the closed-loop per-batch time —
//! serving latencies are directly comparable to the paper's Table I.

#![warn(missing_docs)]

mod batcher;
mod control;
mod request;
mod server;
mod slo;

pub use batcher::{BatcherConfig, ClosedBatch, MicroBatcher};
pub use control::{ControlConfig, ControlReport, Controller, Decision, TickSignals, Tier};
pub use request::{forget_memoized, ArrivalProcess, Bags, PoolWindow, Request, RequestGenerator};
pub use server::{EmbServer, ServeBackendKind, ServeConfig, ServeError, ServeReport};
pub use slo::LatencyStats;
