//! The name kept only because `benchmark/` calls it. It forwards to
//! [`all_to_all`] and behaves exactly as it always did; new code calls
//! `all_to_all`.

use desim::SimTime;
use gpusim::{Faults, Machine};

use crate::{all_to_all, CollectiveConfig, WorkHandle};

/// [`all_to_all`] with [`Faults::Ignore`]: every transfer booked straight
/// on the fabric.
#[deprecated(note = "pinned by benchmark/; use simccl::all_to_all")]
pub fn all_to_all_timed(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
) -> WorkHandle {
    let work = all_to_all(machine, cfg, send_bytes, ready, Faults::Ignore);
    work.expect("an ignored fault plan books")
}
