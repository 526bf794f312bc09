//! A slow, obviously-correct serial forward pass.
//!
//! Both backends' functional outputs are checked against this oracle: a
//! straight loop over `(feature, sample)` that hashes, looks up, pools and
//! writes into the data-parallel output layout `[mb, S, dim]`.

use simtensor::Tensor;

use crate::{EmbeddingShard, EmbeddingTableSpec, IndexHasher, PoolingOp, SparseBatch};

/// Run the EMB forward pass serially. Returns one `[mb, S, dim]` output
/// tensor per device (the data-parallel layout the next DLRM layer needs).
///
/// Weights are materialized per feature from `(seed, feature)` — the same
/// deterministic initialization the sharded backends use — so outputs are
/// directly comparable. Deliberately so: the backends draw single rows with
/// [`EmbeddingShard::init_row`], and this whole-table definition through
/// [`EmbeddingShard::init_table`] is the independent oracle they are held to.
pub fn reference_forward(
    batch: &SparseBatch,
    spec: EmbeddingTableSpec,
    pooling: PoolingOp,
    n_devices: usize,
    seed: u64,
) -> Vec<Tensor> {
    let n = batch.batch_size();
    let s_total = batch.n_features();
    assert!(n >= n_devices, "batch smaller than device count");
    // Ceil split, matching ForwardPlan's mini-batch convention.
    let mb = n.div_ceil(n_devices);
    let mut outputs: Vec<Tensor> = (0..n_devices)
        .map(|d| {
            let size = n.saturating_sub(d * mb).min(mb);
            Tensor::zeros(&[size, s_total * spec.dim])
        })
        .collect();
    let mut pooled = vec![0.0f32; spec.dim];
    for f in 0..s_total {
        let weights = EmbeddingShard::init_table(f, spec, seed);
        let hasher = IndexHasher::new(f, spec.rows, seed);
        for sample in 0..n {
            // Stream rows straight into the accumulator — no per-bag
            // `Vec<&[f32]>` of row references.
            let bag = batch.bag(f, sample);
            crate::kernels::pool_bag(
                pooling,
                &mut pooled,
                bag.iter().map(|&raw| weights.row(hasher.row(raw))),
            );
            let dev = sample / mb;
            let local_s = sample % mb;
            let dst = &mut outputs[dev].row_mut(local_s)[f * spec.dim..(f + 1) * spec.dim];
            dst.copy_from_slice(&pooled);
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexDistribution, SparseBatchSpec};

    fn small_batch() -> SparseBatch {
        SparseBatch::generate(
            &SparseBatchSpec {
                batch_size: 8,
                n_features: 3,
                pooling_min: 0,
                pooling_max: 4,
                index_space: 50,
                distribution: IndexDistribution::Uniform,
            },
            9,
        )
    }

    const SPEC: EmbeddingTableSpec = EmbeddingTableSpec { rows: 20, dim: 4 };

    #[test]
    fn output_shapes() {
        let out = reference_forward(&small_batch(), SPEC, PoolingOp::Sum, 2, 7);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert_eq!(o.dims(), &[4, 3 * 4]);
        }
    }

    #[test]
    fn sum_pooling_matches_manual_computation() {
        let batch = small_batch();
        let out = reference_forward(&batch, SPEC, PoolingOp::Sum, 2, 7);
        // Check one bag by hand: feature 1, sample 5 (device 1, local 1).
        let f = 1;
        let sample = 5;
        let w = EmbeddingShard::init_table(f, SPEC, 7);
        let h = IndexHasher::new(f, SPEC.rows, 7);
        let mut expect = vec![0.0f32; 4];
        for &raw in batch.bag(f, sample) {
            for (e, &x) in expect.iter_mut().zip(w.row(h.row(raw))) {
                *e += x;
            }
        }
        let got = &out[1].row(1)[4..8];
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn single_device_equals_multi_device_reassembled() {
        let batch = small_batch();
        let one = reference_forward(&batch, SPEC, PoolingOp::Sum, 1, 7);
        let two = reference_forward(&batch, SPEC, PoolingOp::Sum, 2, 7);
        let reassembled: Vec<f32> = two.iter().flat_map(|t| t.data().iter().copied()).collect();
        assert_eq!(one[0].data(), &reassembled[..]);
    }

    #[test]
    fn deterministic_in_seed() {
        let batch = small_batch();
        let a = reference_forward(&batch, SPEC, PoolingOp::Mean, 2, 7);
        let b = reference_forward(&batch, SPEC, PoolingOp::Mean, 2, 7);
        let c = reference_forward(&batch, SPEC, PoolingOp::Mean, 2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pooling_ops_differ() {
        let batch = small_batch();
        let sum = reference_forward(&batch, SPEC, PoolingOp::Sum, 1, 7);
        let mean = reference_forward(&batch, SPEC, PoolingOp::Mean, 1, 7);
        let max = reference_forward(&batch, SPEC, PoolingOp::Max, 1, 7);
        assert_ne!(sum, mean);
        assert_ne!(sum, max);
    }
}
