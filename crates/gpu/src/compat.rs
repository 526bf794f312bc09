//! Names kept only because `benchmark/` calls them. Each forwards to
//! [`Machine::transmit`] and behaves exactly as the name always did; new
//! code calls `transmit`.

use desim::{Interval, SimTime};

use crate::{FabricError, Faults, Machine, Send};

impl Machine {
    /// [`Machine::transmit`] at full efficiency, [`Faults::Ignore`].
    #[deprecated(note = "pinned by benchmark/; use Machine::transmit")]
    pub fn send(&mut self, src: usize, dst: usize, payload: u64, n: u64, at: SimTime) -> Interval {
        let sent = self.forward((src, dst), payload, n, at, Faults::Ignore);
        sent.expect("an ignored fault plan books")
    }

    /// [`Machine::transmit`] at full efficiency, [`Faults::Once`].
    #[deprecated(note = "pinned by benchmark/; use Machine::transmit")]
    pub fn try_send(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n: u64,
        at: SimTime,
    ) -> Result<Interval, FabricError> {
        self.forward((src, dst), payload, n, at, Faults::Once)
    }

    /// The forwards' full-efficiency transfer, by its arguments.
    fn forward(
        &mut self,
        (src, dst): (usize, usize),
        payload: u64,
        messages: u64,
        ready: SimTime,
        faults: Faults,
    ) -> Result<Interval, FabricError> {
        let efficiency = 1.0;
        let s = Send {
            src,
            dst,
            payload,
            messages,
            ready,
            efficiency,
            faults,
        };
        self.transmit(&s).map(|d| d.interval)
    }
}
