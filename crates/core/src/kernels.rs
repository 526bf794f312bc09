//! Vectorizable pooling inner loops.
//!
//! The hot per-bag path used to dispatch on [`PoolingOp`] once per *row*
//! (`accumulate`'s `match`). Here each op is a zero-sized [`PoolKernel`]
//! type, and `with_pool_kernel!` hoists the dispatch to once per call
//! site: the inner loops the compiler sees are fixed-stride `f32` passes
//! over `dim`-wide slices with no branches, which it can unroll and
//! autovectorize. The fold/finish semantics are *exactly* those of
//! [`PoolingOp::accumulate`]/[`PoolingOp::finish`] over a zero-initialized
//! accumulator, so kernel outputs are bit-identical to the streaming API
//! (locked by tests here and by the arena-vs-allocating proptests).

use crate::PoolingOp;

/// A monomorphized pooling operator. The accumulator must be zero-filled
/// before the first [`fold`](PoolKernel::fold); an empty bag (no folds,
/// then [`finish`](PoolKernel::finish) with `count == 0`) therefore yields
/// zeros, matching the streaming [`PoolingOp`] API bit for bit.
pub trait PoolKernel {
    /// Fold `row` into `acc`; `k` is this row's 0-based position in the bag.
    fn fold(acc: &mut [f32], row: &[f32], k: usize);
    /// Finalize after `count` folded rows.
    fn finish(acc: &mut [f32], count: usize);
}

/// Elementwise sum ([`PoolingOp::Sum`]).
pub struct SumKernel;

/// Elementwise mean ([`PoolingOp::Mean`]): sum folds, divide at finish.
pub struct MeanKernel;

/// Elementwise max ([`PoolingOp::Max`]): first row overwrites the zeroed
/// accumulator, later rows take the running maximum.
pub struct MaxKernel;

impl PoolKernel for SumKernel {
    #[inline(always)]
    fn fold(acc: &mut [f32], row: &[f32], _k: usize) {
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x;
        }
    }

    #[inline(always)]
    fn finish(_acc: &mut [f32], _count: usize) {}
}

impl PoolKernel for MeanKernel {
    #[inline(always)]
    fn fold(acc: &mut [f32], row: &[f32], _k: usize) {
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x;
        }
    }

    #[inline(always)]
    fn finish(acc: &mut [f32], count: usize) {
        if count > 0 {
            let inv = 1.0 / count as f32;
            for a in acc.iter_mut() {
                *a *= inv;
            }
        }
    }
}

impl PoolKernel for MaxKernel {
    #[inline(always)]
    fn fold(acc: &mut [f32], row: &[f32], k: usize) {
        if k == 0 {
            acc.copy_from_slice(row);
        } else {
            for (a, &x) in acc.iter_mut().zip(row) {
                *a = a.max(x);
            }
        }
    }

    #[inline(always)]
    fn finish(_acc: &mut [f32], _count: usize) {}
}

/// Dispatch a [`PoolingOp`] to its monomorphized [`PoolKernel`] **once**:
/// `with_pool_kernel!(op, K => { ...K::fold(...)... })` expands the body
/// three times, each with `K` bound to a concrete kernel type, so the hot
/// loops inside carry no per-row or per-element `match`.
macro_rules! with_pool_kernel {
    ($op:expr, $K:ident => $body:expr) => {
        match $op {
            $crate::PoolingOp::Sum => {
                type $K = $crate::kernels::SumKernel;
                $body
            }
            $crate::PoolingOp::Mean => {
                type $K = $crate::kernels::MeanKernel;
                $body
            }
            $crate::PoolingOp::Max => {
                type $K = $crate::kernels::MaxKernel;
                $body
            }
        }
    };
}
pub(crate) use with_pool_kernel;

/// Pool one bag with the monomorphized kernel for `op`: zero-fill `acc`,
/// fold every row, finish. `rows` yields `dim`-wide slices. Bit-identical
/// to streaming [`PoolingOp::accumulate`]/[`PoolingOp::finish`] over a
/// zeroed accumulator.
pub fn pool_bag<'a>(op: PoolingOp, acc: &mut [f32], rows: impl Iterator<Item = &'a [f32]>) {
    acc.fill(0.0);
    with_pool_kernel!(op, K => {
        let mut count = 0usize;
        for row in rows {
            K::fold(acc, row, count);
            count += 1;
        }
        K::finish(acc, count);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, -2.0, 3.0],
            vec![4.0, 5.0, -6.0],
            vec![-7.0, 8.0, 9.0],
        ]
    }

    #[test]
    fn kernels_match_streaming_api_bitwise() {
        let rows = rows();
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            for take in 0..=rows.len() {
                let mut expect = vec![0.0f32; 3];
                for (i, r) in rows.iter().take(take).enumerate() {
                    op.accumulate(&mut expect, r, i + 1);
                }
                op.finish(&mut expect, take);
                let mut got = vec![7.0f32; 3];
                pool_bag(op, &mut got, rows.iter().take(take).map(|r| r.as_slice()));
                let same = expect
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{op:?} take={take}: {expect:?} vs {got:?}");
            }
        }
    }

    #[test]
    fn empty_bag_is_zeros() {
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            let mut acc = vec![5.0f32; 4];
            pool_bag(op, &mut acc, std::iter::empty());
            assert_eq!(acc, vec![0.0; 4], "{op:?}");
        }
    }
}
