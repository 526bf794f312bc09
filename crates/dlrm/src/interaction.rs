//! The feature-interaction layer (paper §II: "fuses the embeddings from the
//! MLP and EMB layers using operations such as dot product ... to produce a
//! single dense embedding").
//!
//! Per sample: stack the dense-MLP output with the `S` pooled embedding rows
//! into `S+1` vectors of width `d`, take all distinct pairwise dot products
//! (the strict lower triangle — `(S+1)·S/2` values), and concatenate them
//! after the dense vector.

use simtensor::Tensor;

/// Fuse `dense` (`[mb, d]`) with `emb` (`[mb, S·d]`) into
/// `[mb, d + (S+1)S/2]`, one output row per sample.
pub fn interact(dense: &Tensor, emb: &Tensor, n_features: usize, dim: usize) -> Tensor {
    let mb = dense.dims()[0];
    assert_eq!(dense.dims(), &[mb, dim], "dense must be [mb, d]");
    assert_eq!(emb.dims(), &[mb, n_features * dim], "emb must be [mb, S*d]");
    let s1 = n_features + 1;
    let tri = s1 * (s1 - 1) / 2;
    let width = dim + tri;
    let mut out = Tensor::zeros(&[mb, width]);
    for (sample, out_row) in out.data_mut().chunks_mut(width.max(1)).enumerate() {
        let mut vectors: Vec<&[f32]> = Vec::with_capacity(s1);
        vectors.push(dense.row(sample));
        let emb_row = emb.row(sample);
        for f in 0..n_features {
            vectors.push(&emb_row[f * dim..(f + 1) * dim]);
        }
        out_row[..dim].copy_from_slice(dense.row(sample));
        let mut k = dim;
        for i in 1..s1 {
            for j in 0..i {
                out_row[k] = dot(vectors[i], vectors[j]);
                k += 1;
            }
        }
    }
    out
}

/// Output width of [`interact`] for `S` sparse features and dimension `d`.
pub fn interact_width(n_features: usize, dim: usize) -> usize {
    let s1 = n_features + 1;
    dim + s1 * (s1 - 1) / 2
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// FLOPs of the interaction for a mini-batch (`mb × pairs × 2d`).
pub fn interact_flops(mb: usize, n_features: usize, dim: usize) -> u64 {
    let s1 = (n_features + 1) as u64;
    mb as u64 * (s1 * (s1 - 1) / 2) * 2 * dim as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_formula() {
        assert_eq!(interact_width(2, 4), 4 + 3);
        assert_eq!(interact_width(26, 64), 64 + 27 * 26 / 2);
    }

    #[test]
    fn known_small_case() {
        // d=2, S=1, mb=1: dense = [1, 2], emb row = [3, 4].
        let dense = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let emb = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let out = interact(&dense, &emb, 1, 2);
        // [dense..., dot(emb,dense)] = [1, 2, 3+8=11].
        assert_eq!(out.dims(), &[1, 3]);
        assert_eq!(out.data(), &[1.0, 2.0, 11.0]);
    }

    #[test]
    fn pair_ordering_and_count() {
        // S=2: pairs are (e0,dense), (e1,dense), (e1,e0).
        let dense = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let emb = Tensor::from_vec(vec![0.0, 1.0, 1.0, 1.0], &[1, 4]);
        let out = interact(&dense, &emb, 2, 2);
        assert_eq!(out.dims(), &[1, 2 + 3]);
        assert_eq!(out.data()[2..], [0.0, 1.0, 1.0]);
    }

    #[test]
    fn batched_rows_independent() {
        let dense = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 1);
        let emb = Tensor::rand_uniform(&[3, 8], -1.0, 1.0, 2);
        let all = interact(&dense, &emb, 2, 4);
        for sample in 0..3 {
            let d1 = Tensor::from_vec(dense.row(sample).to_vec(), &[1, 4]);
            let e1 = Tensor::from_vec(emb.row(sample).to_vec(), &[1, 8]);
            let one = interact(&d1, &e1, 2, 4);
            assert_eq!(one.row(0), all.row(sample));
        }
    }

    #[test]
    fn flops_scale() {
        assert_eq!(interact_flops(10, 2, 4), 10 * 3 * 8);
    }

    #[test]
    #[should_panic(expected = "dense must be")]
    fn shape_checked() {
        let dense = Tensor::zeros(&[1, 3]);
        let emb = Tensor::zeros(&[1, 4]);
        let _ = interact(&dense, &emb, 2, 2);
    }
}
