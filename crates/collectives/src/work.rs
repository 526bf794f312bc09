//! Async work handles.

use desim::SimTime;
use gpusim::Machine;

/// Completion record of an asynchronous collective — the analogue of the
/// request object returned by `all_to_all_single(..., async_op=True)` (see
/// [`crate::all_to_all`]).
#[derive(Clone, Debug)]
pub struct WorkHandle {
    device_done: Vec<SimTime>,
    retries: u64,
}

impl WorkHandle {
    /// Build from per-device completion instants and the number of chunk
    /// retries the collective took.
    pub fn new(device_done: Vec<SimTime>, retries: u64) -> Self {
        WorkHandle {
            device_done,
            retries,
        }
    }

    /// Chunk retries performed while completing this collective (0 when it
    /// met the fault plan with `Faults::Ignore` or ran on a clean fabric).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The instant the collective completed on `dev` (device timeline).
    pub fn done_at(&self, dev: usize) -> SimTime {
        self.device_done[dev]
    }

    /// The instant the whole collective is finished everywhere.
    pub fn all_done(&self) -> SimTime {
        self.device_done
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Host-visible `wait()` on `dev`: blocks until the op is done on that
    /// device and pays the stream-sync overhead, as the baseline's
    /// `work.wait()` does.
    pub fn wait(&self, machine: &mut Machine, dev: usize, at: SimTime) -> SimTime {
        let done = self.device_done[dev].max(at);
        done + machine.spec(dev).stream_sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    #[test]
    fn done_and_all_done() {
        let w = WorkHandle::new(vec![SimTime::from_us(5), SimTime::from_us(9)], 0);
        assert_eq!(w.done_at(0), SimTime::from_us(5));
        assert_eq!(w.done_at(1), SimTime::from_us(9));
        assert_eq!(w.all_done(), SimTime::from_us(9));
    }

    #[test]
    fn wait_adds_sync_overhead_and_respects_at() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let w = WorkHandle::new(vec![SimTime::from_us(5), SimTime::from_us(9)], 0);
        let sync = m.spec(0).stream_sync;
        assert_eq!(w.wait(&mut m, 0, SimTime::ZERO), SimTime::from_us(5) + sync);
        // Caller arrives later than completion: wait starts from `at`.
        let late = SimTime::from_ms(1);
        assert_eq!(w.wait(&mut m, 0, late), late + sync);
    }
}
