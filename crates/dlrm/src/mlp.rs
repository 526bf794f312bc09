//! Multilayer perceptrons.

use std::sync::OnceLock;

use gpusim::{GpuSpec, KernelShape};
use simtensor::{Tensor, XavierUniform};

/// A fully connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Xavier-initialized layer, deterministic in `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Linear {
            weight: XavierUniform.init(in_features, out_features, seed),
            bias: Tensor::zeros(&[out_features]),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Forward pass on a `[batch, in]` input.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.addmm(&self.weight, &self.bias)
    }

    /// FLOPs for a batch of `rows` (multiply-accumulate counted as 2).
    pub fn flops(&self, rows: usize) -> u64 {
        2 * rows as u64 * self.in_features() as u64 * self.out_features() as u64
    }
}

/// A ReLU-separated stack of [`Linear`] layers (no activation after the
/// last, as in the DLRM reference). The layers are drawn from `seed` on the
/// first [`Mlp::forward`]: shapes, FLOPs and kernel shapes come from the
/// widths alone, so a Timing-mode pipeline never holds weights.
#[derive(Clone, Debug)]
pub struct Mlp {
    widths: Vec<usize>,
    seed: u64,
    layers: OnceLock<Vec<Linear>>,
}

impl Mlp {
    /// Build from layer widths, e.g. `[13, 512, 256, 64]` → 3 layers.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least one layer");
        Mlp {
            widths: widths.to_vec(),
            seed,
            layers: OnceLock::new(),
        }
    }

    /// The layers, drawn on first use.
    fn layers(&self) -> &[Linear] {
        self.layers.get_or_init(|| {
            (self.widths.windows(2).enumerate())
                .map(|(i, w)| Linear::new(w[0], w[1], self.seed.wrapping_add(i as u64 * 0x9E37)))
                .collect()
        })
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.widths[0]
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.widths[self.widths.len() - 1]
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.widths.len() - 1
    }

    /// Forward pass on `[batch, in]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let layers = self.layers();
        let mut h = x.clone();
        for (i, layer) in layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < layers.len() {
                h = h.relu();
            }
        }
        h
    }

    /// Total FLOPs for a batch of `rows`.
    pub fn flops(&self, rows: usize) -> u64 {
        let layer = |w: &[usize]| 2 * rows as u64 * w[0] as u64 * w[1] as u64;
        self.widths.windows(2).map(layer).sum()
    }

    /// A kernel-shape estimate for the timed pipeline: GEMMs are
    /// compute-bound; blocks tile the output.
    pub fn kernel_shape(&self, rows: usize, spec: &GpuSpec) -> KernelShape {
        let flops = self.flops(rows);
        let blocks = (rows as u64 * self.n_layers() as u64).div_ceil(64).max(1);
        let blocks = blocks.min(spec.max_resident_blocks() as u64 * 8);
        KernelShape {
            blocks,
            bytes_per_block: 0,
            flops_per_block: flops.div_ceil(blocks),
            dependent_accesses: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_identity_behaviour() {
        let mut l = Linear::new(3, 3, 1);
        // Overwrite with identity + bias to verify the math path.
        l.weight = Tensor::eye(3);
        l.bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let x = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        assert_eq!(l.forward(&x).data(), &[11.0, 22.0, 33.0]);
        assert_eq!(l.flops(4), 2 * 4 * 9);
    }

    #[test]
    fn mlp_shapes_and_determinism() {
        let m = Mlp::new(&[13, 64, 32, 8], 7);
        assert_eq!(m.n_layers(), 3);
        assert_eq!(m.in_features(), 13);
        assert_eq!(m.out_features(), 8);
        let x = Tensor::rand_uniform(&[5, 13], -1.0, 1.0, 3);
        let y1 = m.forward(&x);
        let y2 = Mlp::new(&[13, 64, 32, 8], 7).forward(&x);
        assert_eq!(y1.dims(), &[5, 8]);
        assert_eq!(y1, y2);
        let y3 = Mlp::new(&[13, 64, 32, 8], 8).forward(&x);
        assert_ne!(y1, y3);
    }

    #[test]
    fn hidden_relu_but_linear_head() {
        // A single-layer MLP must be able to produce negatives (no ReLU at
        // the end).
        let m = Mlp::new(&[4, 4], 11);
        let x = Tensor::rand_uniform(&[64, 4], -10.0, 10.0, 5);
        let y = m.forward(&x);
        assert!(y.min() < 0.0, "head must not be rectified");
    }

    #[test]
    fn flops_sum_layers() {
        let m = Mlp::new(&[10, 20, 5], 0);
        assert_eq!(m.flops(3), 2 * 3 * (10 * 20 + 20 * 5));
    }

    #[test]
    fn kernel_shape_covers_flops() {
        let m = Mlp::new(&[13, 512, 256, 64], 0);
        let spec = GpuSpec::v100();
        let shape = m.kernel_shape(4096, &spec);
        assert!(shape.blocks * shape.flops_per_block >= m.flops(4096));
        let d = shape.duration(&spec);
        // A 4 k-row MLP forward is microseconds-scale on a V100.
        assert!(d.as_micros_f64() > 1.0 && d.as_millis_f64() < 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn degenerate_mlp_panics() {
        let _ = Mlp::new(&[5], 0);
    }
}
