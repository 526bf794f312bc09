//! The symmetric heap: same layout on every PE, remotely addressable.

use rayon::prelude::*;

/// Handle to one symmetric allocation (same offset and length on every PE),
/// the analogue of a pointer returned by `nvshmem_malloc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SegmentId {
    offset: usize,
    len: usize,
}

impl SegmentId {
    /// Length of the segment in elements.
    pub fn len(&self) -> usize {
        self.len
    }
    /// True if the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A heap of `f32` replicated across `n_pes` PEs. Every allocation exists at
/// the same offset on every PE, so a `(segment, index, pe)` triple names one
/// remote location — exactly the PGAS addressing model.
#[derive(Clone, Debug)]
pub struct SymmetricHeap {
    buffers: Vec<Vec<f32>>,
}

impl SymmetricHeap {
    /// An empty heap across `n_pes` PEs.
    pub fn new(n_pes: usize) -> Self {
        assert!(n_pes >= 1, "need at least one PE");
        SymmetricHeap {
            buffers: vec![Vec::new(); n_pes],
        }
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.buffers.len()
    }

    /// Allocate `len` zeroed elements on every PE.
    pub fn alloc(&mut self, len: usize) -> SegmentId {
        let offset = self.buffers[0].len();
        for buf in &mut self.buffers {
            buf.resize(offset + len, 0.0);
        }
        SegmentId { offset, len }
    }

    /// Read a whole segment on one PE.
    pub fn segment(&self, seg: SegmentId, pe: usize) -> &[f32] {
        &self.buffers[pe][seg.offset..seg.offset + seg.len]
    }

    /// One-sided write of `values` into `seg[index..]` on PE `pe`.
    pub fn put(&mut self, seg: SegmentId, index: usize, values: &[f32], pe: usize) {
        assert!(
            index + values.len() <= seg.len,
            "put of {} elements at index {index} overflows segment of {}",
            values.len(),
            seg.len
        );
        let start = seg.offset + index;
        self.buffers[pe][start..start + values.len()].copy_from_slice(values);
    }

    /// One-sided read of `len` elements from `seg[index..]` on PE `pe`.
    pub fn get(&self, seg: SegmentId, index: usize, len: usize, pe: usize) -> &[f32] {
        assert!(index + len <= seg.len, "get overflows segment");
        let start = seg.offset + index;
        &self.buffers[pe][start..start + len]
    }

    /// One-sided atomic accumulate: `seg[index..] += values` on PE `pe`
    /// (the backward-pass gradient-scatter primitive).
    pub fn atomic_add(&mut self, seg: SegmentId, index: usize, values: &[f32], pe: usize) {
        assert!(
            index + values.len() <= seg.len,
            "atomic_add overflows segment"
        );
        let start = seg.offset + index;
        for (dst, &v) in self.buffers[pe][start..start + values.len()]
            .iter_mut()
            .zip(values)
        {
            *dst += v;
        }
    }

    /// Visit the same segment on every PE, in parallel, handing `f` the
    /// PE id and a mutable view of that PE's copy. The per-PE buffers are
    /// disjoint allocations, so this is the natural parallel shape for
    /// symmetric fills/scatters; `f` sees each PE exactly once.
    pub fn for_each_segment_mut<F>(&mut self, seg: SegmentId, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let mut views: Vec<&mut [f32]> = self
            .buffers
            .iter_mut()
            .map(|buf| &mut buf[seg.offset..seg.offset + seg.len])
            .collect();
        views
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(pe, view)| f(pe, &mut *view[0]));
    }

    /// Zero a segment on every PE.
    pub fn clear(&mut self, seg: SegmentId) {
        for buf in &mut self.buffers {
            buf[seg.offset..seg.offset + seg.len].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_symmetric() {
        let mut h = SymmetricHeap::new(3);
        let a = h.alloc(4);
        let b = h.alloc(2);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        for pe in 0..3 {
            assert_eq!(h.segment(a, pe), &[0.0; 4]);
            assert_eq!(h.segment(b, pe), &[0.0; 2]);
        }
    }

    #[test]
    fn put_targets_one_pe_only() {
        let mut h = SymmetricHeap::new(2);
        let seg = h.alloc(3);
        h.put(seg, 1, &[5.0], 1);
        assert_eq!(h.segment(seg, 0), &[0.0, 0.0, 0.0]);
        assert_eq!(h.segment(seg, 1), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn put_get_round_trip() {
        let mut h = SymmetricHeap::new(2);
        let seg = h.alloc(8);
        h.put(seg, 2, &[1.0, 2.0, 3.0], 0);
        assert_eq!(h.get(seg, 2, 3, 0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut h = SymmetricHeap::new(2);
        let seg = h.alloc(2);
        h.atomic_add(seg, 0, &[1.0, 2.0], 1);
        h.atomic_add(seg, 0, &[10.0, 20.0], 1);
        assert_eq!(h.segment(seg, 1), &[11.0, 22.0]);
        assert_eq!(h.segment(seg, 0), &[0.0, 0.0]);
    }

    #[test]
    fn segments_do_not_alias() {
        let mut h = SymmetricHeap::new(1);
        let a = h.alloc(2);
        let b = h.alloc(2);
        h.put(a, 0, &[1.0, 1.0], 0);
        h.put(b, 0, &[2.0, 2.0], 0);
        assert_eq!(h.segment(a, 0), &[1.0, 1.0]);
        assert_eq!(h.segment(b, 0), &[2.0, 2.0]);
    }

    #[test]
    fn clear_zeroes_everywhere() {
        let mut h = SymmetricHeap::new(2);
        let seg = h.alloc(2);
        h.put(seg, 0, &[9.0, 9.0], 0);
        h.put(seg, 0, &[9.0, 9.0], 1);
        h.clear(seg);
        assert_eq!(h.segment(seg, 0), &[0.0, 0.0]);
        assert_eq!(h.segment(seg, 1), &[0.0, 0.0]);
    }

    #[test]
    fn for_each_segment_mut_visits_every_pe_once() {
        let mut h = SymmetricHeap::new(4);
        let _pad = h.alloc(3);
        let seg = h.alloc(2);
        h.for_each_segment_mut(seg, |pe, view| {
            assert_eq!(view.len(), 2);
            view[0] = pe as f32;
            view[1] = 10.0 * pe as f32;
        });
        for pe in 0..4 {
            assert_eq!(h.segment(seg, pe), &[pe as f32, 10.0 * pe as f32]);
            // The padding segment before it is untouched.
            assert_eq!(h.segment(_pad, pe), &[0.0; 3]);
        }
    }

    #[test]
    #[should_panic(expected = "overflows segment")]
    fn put_bounds_checked() {
        let mut h = SymmetricHeap::new(1);
        let seg = h.alloc(2);
        h.put(seg, 1, &[1.0, 2.0], 0);
    }
}
