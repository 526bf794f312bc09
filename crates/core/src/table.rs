//! Embedding tables and per-device shards.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::prelude::*;
use simtensor::Tensor;

/// A lookup named a feature whose table is not resident in this shard —
/// e.g. a malformed serving request addressing a table the device does not
/// own. The serving path sheds such requests; the panicking accessors (for
/// trusted closed-loop plans) delegate to the fallible ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotResident {
    /// The global feature id that was requested.
    pub feature: usize,
}

impl std::fmt::Display for NotResident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feature {} not resident in this shard", self.feature)
    }
}

impl std::error::Error for NotResident {}

/// Size of one embedding table: `rows` (the hash size `M`) by `dim` (the
/// embedding dimension `d`). In the paper's workloads every feature uses the
/// same spec (1 M rows × 64), but nothing here requires that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmbeddingTableSpec {
    /// Number of rows (post-hash cardinality `M`).
    pub rows: usize,
    /// Embedding dimension `d`.
    pub dim: usize,
}

impl EmbeddingTableSpec {
    /// Bytes of one row (`d × 4`).
    pub fn row_bytes(&self) -> u32 {
        (self.dim * 4) as u32
    }

    /// Bytes of the whole table.
    pub fn table_bytes(&self) -> u64 {
        self.rows as u64 * self.row_bytes() as u64
    }
}

/// The embedding tables resident on one device, with materialized weights —
/// the functional half of a model-parallel shard. Weights are deterministic
/// per `(seed, feature)`, independent of which device hosts the table, so
/// different shardings and backends produce identical outputs.
///
/// The functional forward does not build shards: it draws each looked-up
/// row with [`EmbeddingShard::init_row`]. Shards are for what needs whole,
/// mutable tables — the SGD step (`backward::sgd_update`), tests, and the
/// benchmark's per-layer costs.
#[derive(Clone, Debug)]
pub struct EmbeddingShard {
    spec: EmbeddingTableSpec,
    tables: Vec<(usize, Tensor)>,
}

impl EmbeddingShard {
    /// Materialize tables for the given global feature ids. Each table's
    /// init is independent (seeded per feature), so tables fill in parallel;
    /// the collected order still follows `features`.
    pub fn materialize(features: &[usize], spec: EmbeddingTableSpec, seed: u64) -> Self {
        let tables = (0..features.len())
            .into_par_iter()
            .map(|i| {
                let f = features[i];
                (f, Self::init_table(f, spec, seed))
            })
            .collect();
        EmbeddingShard { spec, tables }
    }

    /// The deterministic initial weights of one feature's table.
    pub fn init_table(feature: usize, spec: EmbeddingTableSpec, seed: u64) -> Tensor {
        let (stream, bound) = init_stream(feature, spec, seed);
        Tensor::rand_uniform(&[spec.rows, spec.dim], -bound, bound, stream)
    }

    /// Row `row` of [`EmbeddingShard::init_table`] into `out` (`spec.dim`
    /// wide), bit for bit, without the table: the init stream is jumped to
    /// the row's first element in O(1) and draws its `dim` values exactly
    /// as `Tensor::rand_uniform` does.
    pub fn init_row(
        feature: usize,
        row: usize,
        spec: EmbeddingTableSpec,
        seed: u64,
        out: &mut [f32],
    ) {
        assert!(row < spec.rows && out.len() == spec.dim);
        let (stream, bound) = init_stream(feature, spec, seed);
        let mut rng = StdRng::seed_from_u64(stream);
        rng.advance((row * spec.dim) as u64);
        out.fill_with(|| {
            // Emits nothing but keeps the loop scalar: with no 64-bit vector
            // multiply (baseline x86-64), vectorized SplitMix64 is ≈ 1.5× slower.
            std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
            rng.gen_range(-bound..=bound)
        });
    }

    /// Table spec shared by every table in this shard.
    pub fn spec(&self) -> EmbeddingTableSpec {
        self.spec
    }

    /// Global feature ids resident here, in local order.
    pub fn features(&self) -> impl Iterator<Item = usize> + '_ {
        self.tables.iter().map(|&(f, _)| f)
    }

    /// Weights of the local table holding global feature `feature`, or
    /// [`NotResident`] if this shard does not own it.
    pub fn try_weights(&self, feature: usize) -> Result<&Tensor, NotResident> {
        self.tables
            .iter()
            .find(|&&(f, _)| f == feature)
            .map(|(_, t)| t)
            .ok_or(NotResident { feature })
    }

    /// Mutable weights (for the backward-pass update), or [`NotResident`].
    pub fn try_weights_mut(&mut self, feature: usize) -> Result<&mut Tensor, NotResident> {
        self.tables
            .iter_mut()
            .find(|&&mut (f, _)| f == feature)
            .map(|(_, t)| t)
            .ok_or(NotResident { feature })
    }

    /// Weights of the local table holding global feature `feature`.
    /// Panics if the feature is not resident — for closed-loop plans whose
    /// placement is trusted; serving code uses
    /// [`EmbeddingShard::try_weights`].
    pub fn weights(&self, feature: usize) -> &Tensor {
        self.try_weights(feature).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mutable weights (for the backward-pass update).
    /// Panics if the feature is not resident.
    pub fn weights_mut(&mut self, feature: usize) -> &mut Tensor {
        match self.try_weights_mut(feature) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Row `row` of `feature`'s table.
    pub fn row(&self, feature: usize, row: usize) -> &[f32] {
        self.weights(feature).row(row)
    }

    /// Total bytes of weights resident here.
    pub fn resident_bytes(&self) -> u64 {
        self.tables.len() as u64 * self.spec.table_bytes()
    }
}

/// One feature's init stream: its seed and its scaled-uniform bound.
fn init_stream(feature: usize, spec: EmbeddingTableSpec, seed: u64) -> (u64, f32) {
    let stream = seed ^ (feature as u64).wrapping_mul(0x9E3779B97F4A7C15);
    (stream, 1.0 / (spec.rows as f32).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: EmbeddingTableSpec = EmbeddingTableSpec { rows: 50, dim: 8 };

    #[test]
    fn spec_arithmetic() {
        assert_eq!(SPEC.row_bytes(), 32);
        assert_eq!(SPEC.table_bytes(), 1600);
    }

    #[test]
    fn init_is_deterministic_per_feature_not_per_placement() {
        let a = EmbeddingShard::materialize(&[3, 7], SPEC, 42);
        let b = EmbeddingShard::materialize(&[7], SPEC, 42);
        assert_eq!(a.weights(7), b.weights(7));
        assert_ne!(a.weights(3), a.weights(7));
    }

    #[test]
    fn init_depends_on_seed() {
        let a = EmbeddingShard::init_table(0, SPEC, 1);
        let b = EmbeddingShard::init_table(0, SPEC, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn init_is_bounded() {
        let w = EmbeddingShard::init_table(5, SPEC, 9);
        let bound = 1.0 / (SPEC.rows as f32).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn accessors() {
        let mut s = EmbeddingShard::materialize(&[2, 5], SPEC, 0);
        assert_eq!(s.features().collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(s.resident_bytes(), 2 * SPEC.table_bytes());
        assert_eq!(s.row(2, 10), s.weights(2).row(10));
        s.weights_mut(5).row_mut(0)[0] = 99.0;
        assert_eq!(s.row(5, 0)[0], 99.0);
        assert_eq!(s.spec(), SPEC);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn missing_feature_panics() {
        let s = EmbeddingShard::materialize(&[0], SPEC, 0);
        let _ = s.weights(1);
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let mut s = EmbeddingShard::materialize(&[0, 2], SPEC, 0);
        assert!(s.try_weights(2).is_ok());
        assert_eq!(s.try_weights(1), Err(NotResident { feature: 1 }));
        assert!(s.try_weights_mut(0).is_ok());
        assert_eq!(
            s.try_weights_mut(9).unwrap_err().to_string(),
            "feature 9 not resident in this shard"
        );
    }
}
