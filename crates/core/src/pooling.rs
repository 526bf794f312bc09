//! Pooling operations: how a bag of embedding rows becomes one output row
//! (paper §II-B). The paper's workloads use sum pooling; mean and max are
//! provided for completeness (they are the other two `EmbeddingBag` modes).

/// How to combine the rows of one bag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolingOp {
    /// Elementwise sum (the paper's mode).
    Sum,
    /// Elementwise mean over the bag.
    Mean,
    /// Elementwise maximum.
    Max,
}

impl PoolingOp {
    /// Fold `row` into `acc`, where `count` is the number of rows folded
    /// so far *including* this one. Start from a zeroed `acc` and call
    /// [`PoolingOp::finish`] after the last row; an empty bag stays zeros
    /// (the paper's NULL-input case). `kernels::pool_bag` is the hot path;
    /// this is the reference it is tested against.
    pub fn accumulate(&self, acc: &mut [f32], row: &[f32], count: usize) {
        match self {
            PoolingOp::Sum | PoolingOp::Mean => {
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += x;
                }
            }
            PoolingOp::Max => {
                if count == 1 {
                    acc.copy_from_slice(row);
                } else {
                    for (a, &x) in acc.iter_mut().zip(row) {
                        *a = a.max(x);
                    }
                }
            }
        }
    }

    /// Finalize a streamed accumulation over `count` rows.
    pub fn finish(&self, acc: &mut [f32], count: usize) {
        if *self == PoolingOp::Mean && count > 0 {
            let inv = 1.0 / count as f32;
            for a in acc.iter_mut() {
                *a *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled(op: PoolingOp, rows: &[&[f32]]) -> Vec<f32> {
        let mut acc = vec![0.0; rows.first().map_or(2, |r| r.len())];
        for (i, r) in rows.iter().enumerate() {
            op.accumulate(&mut acc, r, i + 1);
        }
        op.finish(&mut acc, rows.len());
        acc
    }

    #[test]
    fn sum_pools_elementwise() {
        let out = pooled(
            PoolingOp::Sum,
            &[&[1.0, 2.0], &[10.0, 20.0], &[100.0, 200.0]],
        );
        assert_eq!(out, vec![111.0, 222.0]);
    }

    #[test]
    fn mean_divides_by_bag_size() {
        let out = pooled(PoolingOp::Mean, &[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(out, vec![2.0, 4.0]);
    }

    #[test]
    fn max_takes_elementwise_max() {
        let out = pooled(PoolingOp::Max, &[&[1.0, 9.0], &[5.0, 2.0]]);
        assert_eq!(out, vec![5.0, 9.0]);
    }

    #[test]
    fn empty_bag_yields_zeros() {
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            assert_eq!(pooled(op, &[]), vec![0.0, 0.0], "op {op:?}");
        }
    }

    #[test]
    fn single_row_bag_is_identity_for_all_ops() {
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            let out = pooled(op, &[&[3.5, -1.5]]);
            assert_eq!(out, vec![3.5, -1.5]);
        }
    }
}
