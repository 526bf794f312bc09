//! Elementwise and reduction operations.

use crate::Tensor;

impl Tensor {
    /// Elementwise sum with a tensor of identical shape.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.data().iter().map(|&x| f(x)).collect(), self.dims())
    }

    /// Apply `f` elementwise over two same-shaped tensors.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        Tensor::from_vec(
            self.data()
                .iter()
                .zip(other.data())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.dims(),
        )
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Dot product of two 1-D tensors of equal length.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn elementwise() {
        let a = t(vec![1., 2., 3.], &[3]);
        let b = t(vec![4., 5., 6.], &[3]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.map(|x| x * x).data(), &[1., 4., 9.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[5., 7., 9.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_shape_checked() {
        let _ = t(vec![1.], &[1]).add(&t(vec![1., 2.], &[2]));
    }

    #[test]
    fn reductions() {
        let a = t(vec![1., -2., 3., 4.], &[4]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1., 2., 3.], &[3]);
        let b = t(vec![4., 5., 6.], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }
}
