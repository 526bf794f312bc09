//! Auxiliary compute streams and event gating.
//!
//! The default per-device stream ([`crate::Machine::run_kernel_varied`])
//! serializes every kernel on a device — the right model for the retrieval
//! backends' bulk-synchronous batch loop, but too coarse for an *executed*
//! pipeline schedule where the interaction/MLP head of batch `k-1` must
//! overlap the embedding stage of batch `k`. This module adds the CUDA-stream
//! analogue: any number of additional per-device streams, each a
//! [`desim::Resource`] that serializes its own kernels while running
//! concurrently with the default stream and with every other stream.
//!
//! Dependencies are expressed as [`Event`]s — simulation instants a kernel
//! (or one chunk of a chunked kernel) must wait for before executing, the
//! analogue of `cudaStreamWaitEvent`. Producers mint events from the
//! intervals they already return (a kernel end, a one-sided put's wire
//! delivery); consumers pass them as gates.

use desim::SimTime;

/// Handle to one auxiliary compute stream on one device.
///
/// Obtained from [`crate::Machine::add_stream`]; the device's default stream
/// is *not* addressable through this type — it keeps its dedicated
/// `run_kernel*` entry points so existing schedules stay bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId {
    pub(crate) dev: usize,
    pub(crate) idx: usize,
}

impl StreamId {
    /// The device this stream belongs to.
    pub fn device(&self) -> usize {
        self.dev
    }

    /// Index among the device's auxiliary streams (0 = first added).
    pub fn index(&self) -> usize {
        self.idx
    }
}

/// A recorded dependency instant — the simulation analogue of a CUDA event.
///
/// Wraps a [`SimTime`] so scheduling code can say what a gate *means*
/// (`Event::at(put.end)`) and combine dependencies (`a.join(b)`) without
/// reaching for raw time arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event(SimTime);

impl Event {
    /// The event that is always signalled (epoch).
    pub const READY: Event = Event(SimTime::ZERO);

    /// An event signalled at `t`.
    pub fn at(t: SimTime) -> Self {
        Event(t)
    }

    /// The instant this event fires.
    pub fn when(&self) -> SimTime {
        self.0
    }

    /// The event fired once both inputs have fired (`cudaStreamWaitEvent`
    /// on two recorded events — the later one wins).
    pub fn join(self, other: Event) -> Event {
        Event(self.0.max(other.0))
    }
}

/// One chunk of a chunked (persistent) kernel: `dur` of work that may not
/// begin before `gate` fires. See [`crate::Machine::run_chunked_on`].
#[derive(Clone, Copy, Debug)]
pub struct StageChunk {
    /// Earliest instant this chunk's input data is available.
    pub gate: Event,
    /// Execution time of the chunk (pre-straggler-scaling).
    pub dur: desim::Dur,
    /// Label recorded into the trace lane for this chunk.
    pub label: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_join_takes_the_later_instant() {
        let a = Event::at(SimTime::ZERO + desim::Dur::from_us(3));
        let b = Event::at(SimTime::ZERO + desim::Dur::from_us(7));
        assert_eq!(a.join(b), b);
        assert_eq!(b.join(a), b);
        assert_eq!(Event::READY.join(a), a);
        assert_eq!(Event::READY.when(), SimTime::ZERO);
    }
}
