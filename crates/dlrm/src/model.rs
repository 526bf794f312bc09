//! The model: configuration and the functional forward pass.

use emb_retrieval::EmbLayerConfig;
use simtensor::Tensor;

use crate::{interact, interaction::interact_width, DenseBatch, Mlp};

/// Full-model configuration. Terminology follows the paper's Fig. 1: the
/// *top* MLP consumes dense features; the *bottom* MLP consumes the
/// interaction output and produces the click probability.
#[derive(Clone, Debug)]
pub struct DlrmConfig {
    /// Number of dense features.
    pub n_dense: usize,
    /// Hidden widths of the top (dense-side) MLP; its output width is
    /// forced to the embedding dimension so interaction is well-defined.
    pub top_hidden: Vec<usize>,
    /// Hidden widths of the bottom (post-interaction) MLP; a final width-1
    /// head is appended.
    pub bottom_hidden: Vec<usize>,
    /// The embedding-layer workload.
    pub emb: EmbLayerConfig,
    /// Weight seed.
    pub seed: u64,
}

impl DlrmConfig {
    /// The DLRM benchmark's default MLP stack around the paper's weak-
    /// scaling embedding workload (13 dense features, 512-256 hidden).
    pub fn paper_inference(n_gpus: usize) -> Self {
        DlrmConfig {
            n_dense: 13,
            top_hidden: vec![512, 256],
            bottom_hidden: vec![512, 256],
            emb: EmbLayerConfig::paper_weak_scaling(n_gpus),
            seed: 0xD12A,
        }
    }

    /// A small configuration for functional tests and examples.
    pub fn tiny(n_gpus: usize) -> Self {
        let mut emb = EmbLayerConfig::paper_weak_scaling(n_gpus).scaled_down(512);
        emb.n_batches = 2;
        emb.distinct_batches = 1;
        DlrmConfig {
            n_dense: 4,
            top_hidden: vec![16],
            bottom_hidden: vec![16],
            emb,
            seed: 0xD12A,
        }
    }

    /// Layer widths of the top MLP (`[n_dense, ...hidden, d]`).
    pub fn top_widths(&self) -> Vec<usize> {
        let mut w = vec![self.n_dense];
        w.extend_from_slice(&self.top_hidden);
        w.push(self.emb.dim);
        w
    }

    /// Layer widths of the bottom MLP (`[interaction, ...hidden, 1]`).
    pub fn bottom_widths(&self) -> Vec<usize> {
        let mut w = vec![interact_width(self.emb.n_features, self.emb.dim)];
        w.extend_from_slice(&self.bottom_hidden);
        w.push(1);
        w
    }
}

/// The model: MLP weights plus the embedding workload description. The
/// embedding tables themselves live with the retrieval backends (model
/// parallelism); MLP weights are replicated (data parallelism).
#[derive(Clone, Debug)]
pub struct Dlrm {
    /// Configuration.
    pub cfg: DlrmConfig,
    /// Dense-side MLP.
    pub top: Mlp,
    /// Post-interaction MLP with sigmoid head.
    pub bottom: Mlp,
}

impl Dlrm {
    /// Build a model with deterministic weights.
    pub fn new(cfg: DlrmConfig) -> Self {
        let top = Mlp::new(&cfg.top_widths(), cfg.seed);
        let bottom = Mlp::new(&cfg.bottom_widths(), cfg.seed.wrapping_add(1));
        Dlrm { cfg, top, bottom }
    }

    /// Functional forward of everything *after* the embedding layer for one
    /// device: `dense_mb` is the device's dense mini-batch, `emb_out` its
    /// `[mb, S·d]` embedding-layer output. Returns `[mb, 1]` probabilities.
    pub fn head_forward(&self, dense_mb: &Tensor, emb_out: &Tensor) -> Tensor {
        let dense_emb = self.top.forward(dense_mb);
        let fused = interact(
            &dense_emb,
            emb_out,
            self.cfg.emb.n_features,
            self.cfg.emb.dim,
        );
        self.bottom.forward(&fused).sigmoid()
    }

    /// Functional forward for all devices at once.
    pub fn forward_all(&self, dense: &DenseBatch, emb_outputs: &[Tensor]) -> Vec<Tensor> {
        let n = emb_outputs.len();
        (0..n)
            .map(|dev| self.head_forward(&dense.minibatch(dev, n), &emb_outputs[dev]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_retrieval::backend::{Backend, ExecMode};
    use gpusim::{Machine, MachineConfig};

    #[test]
    fn widths_chain_correctly() {
        let cfg = DlrmConfig::tiny(2);
        let w = cfg.top_widths();
        assert_eq!(*w.first().unwrap(), 4);
        assert_eq!(*w.last().unwrap(), cfg.emb.dim);
        let b = cfg.bottom_widths();
        assert_eq!(b[0], interact_width(cfg.emb.n_features, cfg.emb.dim));
        assert_eq!(*b.last().unwrap(), 1);
    }

    #[test]
    fn end_to_end_functional_forward() {
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg.clone());
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let emb_out = Backend::baseline()
            .run(&mut m, &cfg.emb, ExecMode::Functional)
            .outputs
            .unwrap();
        let dense = DenseBatch::generate(cfg.emb.batch_size, cfg.n_dense, 5);
        let preds = model.forward_all(&dense, &emb_out);
        assert_eq!(preds.len(), 2);
        for p in &preds {
            assert_eq!(p.dims(), &[cfg.emb.mb_size(), 1]);
            assert!(p.min() > 0.0 && p.max() < 1.0, "sigmoid range");
        }
        // Not a constant predictor.
        let flat: Vec<f32> = preds.iter().flat_map(|t| t.data().to_vec()).collect();
        let spread = flat.iter().cloned().fold(f32::MIN, f32::max)
            - flat.iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread > 1e-4, "predictions all identical");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = DlrmConfig::tiny(1);
        let a = Dlrm::new(cfg.clone());
        let b = Dlrm::new(cfg.clone());
        let dense = DenseBatch::generate(cfg.emb.batch_size, cfg.n_dense, 9);
        let emb = Tensor::rand_uniform(
            &[cfg.emb.batch_size, cfg.emb.n_features * cfg.emb.dim],
            -1.0,
            1.0,
            3,
        );
        assert_eq!(
            a.head_forward(&dense.minibatch(0, 1), &emb),
            b.head_forward(&dense.minibatch(0, 1), &emb)
        );
    }
}
