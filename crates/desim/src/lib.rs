//! # desim — deterministic discrete-event simulation engine
//!
//! A small, allocation-light discrete-event simulation (DES) core used by the
//! GPU machine model ([`gpusim`](https://crates.io/crates/gpusim)) and the
//! communication layers built on top of it.
//!
//! Design goals:
//!
//! * **Determinism.** Events firing at the same timestamp are ordered by a
//!   monotonically increasing sequence number, so two runs of the same
//!   simulation produce bit-identical timelines regardless of hash-map
//!   iteration order or host parallelism.
//! * **No hidden clock.** All time is explicit [`SimTime`] / [`Dur`]
//!   nanoseconds; nothing reads the wall clock.
//! * **Composability.** The engine does not impose a process abstraction;
//!   higher layers drive [`EventQueue`] directly and use [`Resource`] /
//!   [`MultiResource`] to model serialized servers (links, DMA engines) and
//!   k-server stations (SMs executing thread blocks).
//!
//! ```
//! use desim::{EventQueue, Dur, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(Dur::from_us(5), Ev::Ping(1));
//! q.schedule(Dur::from_us(2), Ev::Ping(2));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_us(2));
//! assert_eq!(ev, Ev::Ping(2));
//! ```

#![warn(missing_docs)]

mod queue;
mod record;
mod resource;
mod time;

pub use queue::EventQueue;
pub use record::{Histogram, Spread, TimeSeries};
pub use resource::{Interval, MultiResource, Resource};
pub use time::{Dur, SimTime};
