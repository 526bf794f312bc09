//! Property-based tests for simtensor.

use proptest::prelude::*;
use simtensor::Tensor;

fn tensor_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]))
    })
}

proptest! {
    /// Transpose is an involution.
    #[test]
    fn transpose_involution(t in tensor_strategy(8, 8)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// Matmul with identity is identity on either side.
    #[test]
    fn matmul_identity_laws(t in tensor_strategy(6, 6)) {
        let (m, n) = (t.dims()[0], t.dims()[1]);
        prop_assert!(t.matmul(&Tensor::eye(n)).allclose(&t, 1e-4));
        prop_assert!(Tensor::eye(m).matmul(&t).allclose(&t, 1e-4));
    }

    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_law(
        va in prop::collection::vec(-10.0f32..10.0, 5 * 4),
        vb in prop::collection::vec(-10.0f32..10.0, 4 * 3),
    ) {
        let a = Tensor::from_vec(va, &[5, 4]);
        let b = Tensor::from_vec(vb, &[4, 3]);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// Elementwise addition commutes and sub undoes add.
    #[test]
    fn add_sub_laws(a in tensor_strategy(6, 6)) {
        let b = a.map(|x| x * 0.5 + 1.0);
        prop_assert!(a.add(&b).allclose(&b.add(&a), 0.0));
        prop_assert!(a.add(&b).sub(&b).allclose(&a, 1e-3));
    }

    /// relu is idempotent and non-negative.
    #[test]
    fn relu_idempotent(t in tensor_strategy(4, 9)) {
        let r = t.relu();
        prop_assert!(r.min() >= 0.0);
        prop_assert_eq!(r.relu(), r);
    }

    /// reshape preserves flat data.
    #[test]
    fn reshape_preserves_data(t in tensor_strategy(4, 6)) {
        let n = t.numel();
        let flat = t.clone().reshape(&[n]);
        prop_assert_eq!(flat.data(), t.data());
    }
}
