//! Neural-network activations used by DLRM.

use crate::Tensor;

impl Tensor {
    /// Rectified linear unit, elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Logistic sigmoid, elementwise.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let t = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]);
        let s = t.sigmoid();
        assert!(s.data()[0] < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 1.0 - 1e-6);
    }
}
