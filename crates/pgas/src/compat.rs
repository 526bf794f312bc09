//! Names kept only because `benchmark/` calls them. Each forwards to
//! [`OneSided::put`] and behaves exactly as the name always did; new code
//! calls `put`.

#![allow(deprecated)]

use desim::{Interval, SimTime};
use gpusim::Faults;

use crate::{coalesce_rows, OneSided};

impl OneSided<'_> {
    /// [`OneSided::put`] of `rows` coalesced row-stores, [`Faults::Ignore`].
    #[deprecated(note = "pinned by benchmark/; use OneSided::put")]
    pub fn put_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Interval {
        let batch = coalesce_rows(rows, row_bytes, self.config().max_payload);
        let put = self.put(src, dst, batch, ready, Faults::Ignore);
        put.expect("an ignored fault plan books").interval
    }

    /// [`OneSided::put`] of `rows` coalesced gradient rows, [`Faults::Ignore`].
    #[deprecated(note = "pinned by benchmark/; use OneSided::put")]
    pub fn atomic_add_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Interval {
        self.put_rows_nbi(src, dst, rows, row_bytes, ready)
    }
}
