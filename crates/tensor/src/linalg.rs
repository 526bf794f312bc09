//! Dense linear algebra: matmul, fused bias-add, cache-blocked transpose.
//!
//! `matmul` parallelizes over output rows with rayon, following the
//! data-parallel idiom of the HPC guides: each output row is an independent
//! task, so `par_chunks_mut` gives race-free parallelism with zero locking.
//! `addmm` folds the bias-add into the same per-row pass (after the ikj
//! accumulation, preserving the exact FP operation order of a separate
//! bias pass), and `transpose` walks the matrix in cache-sized tiles.

use rayon::prelude::*;

use crate::Tensor;

/// Tile edge for the blocked transpose: 64×64 f32 tiles (16 KiB of source
/// plus 16 KiB of destination) fit comfortably in L1/L2 on any modern core.
const TRANSPOSE_TILE: usize = 64;

impl Tensor {
    /// Matrix product of a `[m, k]` tensor with a `[k, n]` tensor.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_bias(other, None)
    }

    /// `self.matmul(weight) + bias` where `bias` is a 1-D `[n]` tensor
    /// broadcast over rows — the Linear-layer primitive. The bias-add is
    /// fused into the per-row matmul pass (no second sweep over the
    /// output, no bias copy); each row still accumulates products first
    /// and adds the bias after, so the result is bit-identical to the
    /// unfused `matmul` + bias-add sequence.
    pub fn addmm(&self, weight: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(
            bias.dims(),
            &[weight.dims()[1]],
            "bias must be [out_features]"
        );
        self.matmul_bias(weight, Some(bias))
    }

    fn matmul_bias(&self, other: &Tensor, bias: Option<&Tensor>) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        let lhs = self.data();
        let rhs = other.data();
        let bias = bias.map(Tensor::data);
        out.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(i, out_row)| {
                let a_row = &lhs[i * k..(i + 1) * k];
                // ikj loop order: stream through rhs rows for cache locality.
                for (a_ik, rhs_row) in a_row.iter().zip(rhs.chunks_exact(n.max(1))) {
                    if *a_ik == 0.0 {
                        continue;
                    }
                    for (o, r) in out_row.iter_mut().zip(rhs_row) {
                        *o += a_ik * r;
                    }
                }
                if let Some(b) = bias {
                    for (o, bi) in out_row.iter_mut().zip(b) {
                        *o += bi;
                    }
                }
            });
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor, tiled so both the source rows and the
    /// destination rows of a tile stay cache-resident, and parallel over
    /// bands of destination rows. A transpose is a pure permutation, so
    /// the result is exactly equal to the naive `i,j` loop.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        let src = self.data();
        let t = TRANSPOSE_TILE;
        // One parallel task per band of `t` destination rows (= `t` source
        // columns); bands are disjoint chunks of the output buffer.
        out.par_chunks_mut((t * m).max(1))
            .enumerate()
            .for_each(|(band, out_band)| {
                let j0 = band * t;
                let jn = (j0 + t).min(n) - j0;
                for i0 in (0..m).step_by(t) {
                    let i1 = (i0 + t).min(m);
                    for dj in 0..jn {
                        let row = &mut out_band[dj * m..dj * m + m];
                        let col = j0 + dj;
                        for i in i0..i1 {
                            row[i] = src[i * n + col];
                        }
                    }
                }
            });
        Tensor::from_vec(out, &[n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..20).map(|x| x as f32).collect(), &[4, 5]);
        assert_eq!(a.matmul(&Tensor::eye(5)), a);
        assert_eq!(Tensor::eye(4).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn matmul_checks_dims() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn addmm_broadcasts_bias() {
        let x = Tensor::ones(&[2, 2]);
        let w = Tensor::eye(2);
        let b = Tensor::from_vec(vec![10., 20.], &[2]);
        let y = x.addmm(&w, &b);
        assert_eq!(y.row(0), &[11., 21.]);
        assert_eq!(y.row(1), &[11., 21.]);
    }

    #[test]
    fn addmm_is_bit_identical_to_unfused() {
        let mut seed = 0xD1B54A32D192ED03u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let (m, k, n) = (9, 31, 21);
        let x = Tensor::from_vec((0..m * k).map(|_| next()).collect(), &[m, k]);
        let w = Tensor::from_vec((0..k * n).map(|_| next()).collect(), &[k, n]);
        let b = Tensor::from_vec((0..n).map(|_| next()).collect(), &[n]);
        // Unfused reference: matmul, then a separate bias sweep.
        let mut reference = x.matmul(&w);
        for row in reference.data_mut().chunks_exact_mut(n) {
            for (o, bi) in row.iter_mut().zip(b.data()) {
                *o += bi;
            }
        }
        let fused = x.addmm(&w, &b);
        assert_eq!(
            fused.data(),
            reference.data(),
            "fusion must not reassociate"
        );
    }

    #[test]
    #[should_panic(expected = "out_features")]
    fn addmm_checks_bias_shape() {
        let _ = Tensor::ones(&[2, 3]).addmm(&Tensor::ones(&[3, 4]), &Tensor::ones(&[3]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn blocked_transpose_equals_naive_beyond_tile_size() {
        // Sizes straddling the tile edge, including ragged remainders.
        for &(m, n) in &[(1, 1), (1, 130), (130, 1), (63, 65), (64, 64), (100, 177)] {
            let a = Tensor::from_vec((0..m * n).map(|x| x as f32 * 0.5).collect(), &[m, n]);
            let t = a.transpose();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = a.data()[i * n + j];
                }
            }
            assert_eq!(t.data(), &naive[..], "{m}x{n}");
            assert_eq!(t.dims(), &[n, m]);
        }
    }

    #[test]
    fn matmul_matches_naive_on_random() {
        // Deterministic pseudo-random fill without pulling in rand here.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let (m, k, n) = (17, 23, 13);
        let a = Tensor::from_vec((0..m * k).map(|_| next()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|_| next()).collect(), &[k, n]);
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a.at(&[i, l]) * b.at(&[l, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-4);
            }
        }
    }
}
