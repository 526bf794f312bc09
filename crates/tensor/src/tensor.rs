//! The dense tensor type.

use crate::Shape;

/// A dense, row-major, contiguous `f32` tensor that owns its storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wrap existing data. Panics if `data.len()` does not match the shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat read-only storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {:?} changes element count",
            shape
        );
        self.shape = shape;
        self
    }

    /// Borrow row `i` of a 2-D tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutably borrow row `i` of a 2-D tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.shape.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape.dim(1);
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Maximum absolute elementwise difference to another tensor of the same
    /// shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if all elements are within `tol` of `other`'s.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.dims() == other.dims() && self.max_abs_diff(other) <= tol
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).data(), &[0.0; 6]);
        assert_eq!(Tensor::ones(&[4]).data(), &[1.0; 4]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.at(&[2, 2]), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_len() {
        Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.data_mut()[5] = 42.0;
        assert_eq!(t.at(&[1, 2]), 42.0);
    }

    #[test]
    fn rows_and_reshape() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.row(1), &[4., 5., 6.]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.row(2), &[5., 6.]);
        let mut m = t;
        m.row_mut(0)[0] = 9.0;
        assert_eq!(m.at(&[0, 0]), 9.0);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_checks_numel() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn closeness() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0 + 1e-6], &[2]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-7));
        assert!((a.max_abs_diff(&b) - 1e-6).abs() < 1e-7);
    }

    #[test]
    fn debug_output_is_compact_for_large_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elements"));
    }
}
