//! # simtensor — minimal dense f32 tensor library
//!
//! The substrate standing in for PyTorch's tensor layer in this reproduction.
//! It provides exactly what the DLRM model and the embedding-retrieval layer
//! need: row-major contiguous `f32` tensors, elementwise ops, a serial
//! matmul, the activations used by DLRM (ReLU, sigmoid), and deterministic
//! random initialization.
//!
//! The design intentionally avoids autograd, broadcasting and dtype
//! genericity: the paper's evaluation is an *inference* forward pass, and the
//! backward-pass extension computes its gradients explicitly.
//!
//! ```
//! use simtensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]

mod init;
mod linalg;
mod nn;
mod ops;
mod shape;
mod tensor;

pub use init::XavierUniform;
pub use shape::Shape;
pub use tensor::Tensor;
