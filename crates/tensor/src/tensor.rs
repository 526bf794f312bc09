//! The dense tensor type and borrowed views.

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

    /// A 1-D tensor `[0, 1, ..., n-1]` as f32.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
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

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
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

    /// An immutable borrowed view of the whole tensor.
    pub fn view(&self) -> TensorView<'_> {
        TensorView {
            shape: self.shape.clone(),
            data: &self.data,
        }
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

/// Borrowed immutable view with its own shape (e.g. a reshaped window).
pub struct TensorView<'a> {
    shape: Shape,
    data: &'a [f32],
}

impl<'a> TensorView<'a> {
    /// View over a borrowed slice with an explicit shape.
    pub fn new(data: &'a [f32], dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.numel(), "view length mismatch");
        TensorView { shape, data }
    }

    /// View shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }
    /// Flat storage.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }
    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }
    /// Copy into an owned tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.to_vec(), self.shape.dims())
    }
}

/// Borrowed mutable view with its own shape.
pub struct TensorViewMut<'a> {
    shape: Shape,
    data: &'a mut [f32],
}

impl<'a> TensorViewMut<'a> {
    /// Mutable view over a borrowed slice with an explicit shape.
    pub fn new(data: &'a mut [f32], dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.numel(), "view length mismatch");
        TensorViewMut { shape, data }
    }

    /// View shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
    /// Flat storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data
    }
    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
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
        assert_eq!(Tensor::arange(3).data(), &[0.0, 1.0, 2.0]);
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
        *t.at_mut(&[1, 2]) = 42.0;
        assert_eq!(t.at(&[1, 2]), 42.0);
        assert_eq!(t.data()[5], 42.0);
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
    fn views() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let v = t.view();
        assert_eq!(v.at(&[1, 0]), 3.0);
        assert_eq!(v.to_tensor(), t);
        let data = [1.0, 2.0, 3.0, 4.0];
        let v2 = TensorView::new(&data, &[2, 2]);
        assert_eq!(v2.at(&[1, 1]), 4.0);
        assert_eq!(v2.dims(), &[2, 2]);

        let mut buf = vec![0.0; 4];
        let mut vm = TensorViewMut::new(&mut buf, &[2, 2]);
        *vm.at_mut(&[0, 1]) = 5.0;
        assert_eq!(vm.shape().numel(), 4);
        assert_eq!(buf[1], 5.0);
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
