//! Sparse input batches (the analogue of TorchRec's `KeyedJaggedTensor`).
//!
//! A batch holds, for every `(feature, sample)` pair, a *bag* of raw sparse
//! indices. Bag sizes (the pooling factor) vary per pair; empty bags are the
//! paper's NULL inputs (Fig. 3). Storage is CSR, feature-major:
//! bag `(f, s)` is `indices[offsets[f·N + s] .. offsets[f·N + s + 1]]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How raw indices are distributed over the index space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexDistribution {
    /// Uniform random — the paper's synthetic workload (§IV).
    Uniform,
    /// Zipf with the given exponent — the skewed-input ablation; real
    /// recommendation traffic concentrates on hot entities.
    Zipf {
        /// Skew exponent `s > 0`; larger is more skewed.
        exponent: f64,
    },
}

impl IndexDistribution {
    /// Expected fraction of embedding-row reads served by a cache holding
    /// the `cache_rows` hottest rows of a `table_rows`-row table, for raw
    /// indices drawn from this distribution over `index_space`.
    ///
    /// Uniform traffic spreads over the whole table, so the hit rate is
    /// just the cached fraction of the table. Zipf traffic concentrates on
    /// the rows its hottest raw indices hash to, so the hit rate is the
    /// Zipf mass of the top `cache_rows` indices — this is what makes real
    /// (skewed) recommendation traffic cache-friendly. On top of that head
    /// mass, the *tail* of the distribution hashes near-uniformly over the
    /// table, so a `cache_rows / table_rows` slice of the remaining traffic
    /// still lands on cached rows; the model folds that in. The harmonic
    /// sums use `partial_harmonic` (exact head + midpoint-corrected
    /// integral tail), not the raw continuous integral, which under-weights
    /// exactly the head terms where Zipf mass concentrates.
    pub fn cache_hit_fraction(&self, index_space: u64, table_rows: u64, cache_rows: u64) -> f64 {
        if cache_rows == 0 || table_rows == 0 {
            return 0.0;
        }
        match *self {
            IndexDistribution::Uniform => (cache_rows as f64 / table_rows as f64).min(1.0),
            IndexDistribution::Zipf { exponent: s } => {
                let k = cache_rows.min(index_space).min(table_rows);
                let z = (partial_harmonic(k, s) / partial_harmonic(index_space, s)).clamp(0.0, 1.0);
                (z + (1.0 - z) * (k as f64 / table_rows as f64)).min(1.0)
            }
        }
    }
}

/// Terms summed exactly before [`partial_harmonic`] switches to its
/// integral tail. Large enough to cover every cache size the experiments
/// sweep head-on at smoke scale; small enough to stay O(1)-ish.
const HARMONIC_EXACT_TERMS: u64 = 16_384;

/// Generalized harmonic number `H(m, s) = Σ_{i=1..m} i^{-s}`: exact partial
/// sum for the first [`HARMONIC_EXACT_TERMS`] terms, then a
/// midpoint-corrected integral `∫ x^{-s} dx` over `[e+½, m+½]` for the
/// tail, where the summand is smooth and the correction is negligible.
fn partial_harmonic(m: u64, s: f64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let exact = m.min(HARMONIC_EXACT_TERMS);
    let mut h = 0.0;
    for i in 1..=exact {
        h += (i as f64).powf(-s);
    }
    if m > exact {
        let a = exact as f64 + 0.5;
        let b = m as f64 + 0.5;
        h += if (s - 1.0).abs() < 1e-9 {
            (b / a).ln()
        } else {
            let t = 1.0 - s;
            (b.powf(t) - a.powf(t)) / t
        };
    }
    h
}

/// Generator parameters for a synthetic sparse batch.
#[derive(Clone, Copy, Debug)]
pub struct SparseBatchSpec {
    /// Global batch size `N` (samples).
    pub batch_size: usize,
    /// Number of sparse features `S` (one embedding table each).
    pub n_features: usize,
    /// Minimum pooling factor (0 allows NULL bags).
    pub pooling_min: u32,
    /// Maximum pooling factor; bag sizes are uniform in
    /// `[pooling_min, pooling_max]` (paper: "generated from a uniform
    /// distribution with a maximum size of 128").
    pub pooling_max: u32,
    /// Raw sparse-index space (pre-hash cardinality).
    pub index_space: u64,
    /// Distribution of raw indices over the space.
    pub distribution: IndexDistribution,
}

impl SparseBatchSpec {
    /// Mean pooling factor of the uniform bag-size distribution.
    pub fn mean_pooling(&self) -> f64 {
        (self.pooling_min + self.pooling_max) as f64 / 2.0
    }
}

/// Why assembling a batch from per-request bag sizes failed. The serving
/// path turns these into shed/counted requests instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchAssemblyError {
    /// No requests were supplied.
    Empty,
    /// Request `request` carried `got` per-feature bag sizes where the
    /// workload expects `expected`.
    FeatureCountMismatch {
        /// Index of the offending request within the slice.
        request: usize,
        /// Bag-size entries the workload's feature count requires.
        expected: usize,
        /// Bag-size entries the request actually carried.
        got: usize,
    },
}

impl std::fmt::Display for BatchAssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BatchAssemblyError::Empty => write!(f, "no requests to assemble"),
            BatchAssemblyError::FeatureCountMismatch {
                request,
                expected,
                got,
            } => write!(
                f,
                "request {request} has {got} bag sizes, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for BatchAssemblyError {}

/// A generated batch of sparse inputs in CSR layout.
#[derive(Clone, Debug)]
pub struct SparseBatch {
    batch_size: usize,
    n_features: usize,
    offsets: Vec<usize>,
    indices: Vec<u64>,
    has_indices: bool,
}

impl SparseBatch {
    /// Generate a full batch (bag sizes *and* raw indices) from `seed`.
    pub fn generate(spec: &SparseBatchSpec, seed: u64) -> Self {
        Self::generate_inner(spec, seed, true)
    }

    /// Generate only the bag-size structure (offsets), leaving indices
    /// empty. Sufficient for timing-only runs, where only volumes matter;
    /// functional execution will panic.
    pub fn generate_counts_only(spec: &SparseBatchSpec, seed: u64) -> Self {
        Self::generate_inner(spec, seed, false)
    }

    fn generate_inner(spec: &SparseBatchSpec, seed: u64, with_indices: bool) -> Self {
        assert!(
            spec.batch_size > 0 && spec.n_features > 0,
            "empty batch spec"
        );
        assert!(
            spec.pooling_min <= spec.pooling_max,
            "pooling_min > pooling_max"
        );
        assert!(spec.index_space > 0, "index space must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_bags = spec.batch_size * spec.n_features;
        let mut offsets = Vec::with_capacity(n_bags + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for _ in 0..n_bags {
            total += rng.gen_range(spec.pooling_min..=spec.pooling_max) as usize;
            offsets.push(total);
        }
        let indices = if with_indices {
            let mut v = Vec::with_capacity(total);
            match spec.distribution {
                IndexDistribution::Uniform => {
                    for _ in 0..total {
                        v.push(rng.gen_range(0..spec.index_space));
                    }
                }
                IndexDistribution::Zipf { exponent } => {
                    let sampler = ZipfSampler::new(spec.index_space, exponent);
                    for _ in 0..total {
                        v.push(sampler.sample(&mut rng));
                    }
                }
            }
            v
        } else {
            Vec::new()
        };
        SparseBatch {
            batch_size: spec.batch_size,
            n_features: spec.n_features,
            offsets,
            indices,
            has_indices: with_indices,
        }
    }

    /// Assemble a counts-only batch from per-request bag-size rows:
    /// `requests[s][f]` is the pooling factor of feature `f` in request
    /// `s` — a batch assembled from the columns of a generated batch, in
    /// order, is bit-identical to that batch. The serving path does not
    /// assemble one: it plans a closed batch straight from the request pool
    /// (a [`crate::PlanInput`]), and this is the oracle that plan is tested
    /// against.
    pub fn from_bag_sizes(
        n_features: usize,
        requests: &[Vec<u32>],
    ) -> Result<Self, BatchAssemblyError> {
        if requests.is_empty() || n_features == 0 {
            return Err(BatchAssemblyError::Empty);
        }
        for (s, r) in requests.iter().enumerate() {
            if r.len() != n_features {
                return Err(BatchAssemblyError::FeatureCountMismatch {
                    request: s,
                    expected: n_features,
                    got: r.len(),
                });
            }
        }
        let n = requests.len();
        let mut offsets = Vec::with_capacity(n_features * n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for f in 0..n_features {
            for r in requests {
                total += r[f] as usize;
                offsets.push(total);
            }
        }
        Ok(SparseBatch {
            batch_size: n,
            n_features,
            offsets,
            indices: Vec::new(),
            has_indices: false,
        })
    }

    /// Global batch size `N`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of sparse features `S`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True if raw indices were generated (functional execution possible).
    pub fn has_indices(&self) -> bool {
        self.has_indices
    }

    /// Pooling factor (bag size) of `(feature, sample)`.
    pub fn pooling_factor(&self, feature: usize, sample: usize) -> usize {
        let b = self.bag_id(feature, sample);
        self.offsets[b + 1] - self.offsets[b]
    }

    /// Sum of the pooling factors of `feature`'s `len` consecutive samples
    /// starting at `sample` — one CSR offset difference, whatever `len`.
    pub fn lookups_in(&self, feature: usize, sample: usize, len: usize) -> usize {
        let b = self.bag_id(feature, sample);
        assert!(sample + len <= self.batch_size, "sample range out of range");
        self.offsets[b + len] - self.offsets[b]
    }

    /// The raw indices of bag `(feature, sample)`.
    /// Panics on a counts-only batch.
    pub fn bag(&self, feature: usize, sample: usize) -> &[u64] {
        assert!(self.has_indices, "counts-only batch has no index data");
        let b = self.bag_id(feature, sample);
        &self.indices[self.offsets[b]..self.offsets[b + 1]]
    }

    /// Total index count across all bags.
    pub fn total_indices(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Flat bag index of `(feature, sample)` in feature-major order.
    #[inline]
    pub fn bag_id(&self, feature: usize, sample: usize) -> usize {
        assert!(feature < self.n_features, "feature out of range");
        assert!(sample < self.batch_size, "sample out of range");
        feature * self.batch_size + sample
    }
}

/// Discrete Zipf sampler over `[0, n)` with exponent `s`, built to invert
/// *exactly* the cumulative law [`partial_harmonic`] models: exact per-rank
/// masses for the first [`HARMONIC_EXACT_TERMS`] ranks, then the same
/// midpoint-corrected integral tail. Keeping the generator and the analytic
/// [`IndexDistribution::cache_hit_fraction`] model on a single law is what
/// lets measured cache-hit rates track the model to within sampling noise;
/// a continuous-CDF approximation under-weights exactly the head ranks a
/// hot-row cache holds.
struct ZipfSampler {
    n: u64,
    s: f64,
    /// `head_cdf[i] = H(i+1, s) / H(n, s)` — normalized cumulative mass of
    /// ranks `1..=i+1`, summed exactly.
    head_cdf: Vec<f64>,
    /// Total mass `H(n, s)`.
    total: f64,
}

impl ZipfSampler {
    fn new(n: u64, s: f64) -> Self {
        assert!(s > 0.0 && s.is_finite(), "zipf exponent must be positive");
        let total = partial_harmonic(n, s);
        let head = n.min(HARMONIC_EXACT_TERMS);
        let mut head_cdf = Vec::with_capacity(head as usize);
        let mut acc = 0.0;
        for i in 1..=head {
            acc += (i as f64).powf(-s);
            head_cdf.push(acc / total);
        }
        ZipfSampler {
            n,
            s,
            head_cdf,
            total,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let head_top = *self.head_cdf.last().expect("n > 0");
        if u < head_top || self.head_cdf.len() as u64 == self.n {
            // Count of cumulative entries below `u` is the 0-based rank.
            let r = self.head_cdf.partition_point(|&c| c < u) as u64;
            return r.min(self.n - 1);
        }
        // Tail rank i owns the mass of `x^{-s}` over `[i-½, i+½)`; invert
        // the integral from the head boundary `e+½` and round to the
        // owning rank.
        let e = self.head_cdf.len() as u64;
        let a = e as f64 + 0.5;
        let rem = (u - head_top) * self.total;
        let x = if (self.s - 1.0).abs() < 1e-9 {
            a * rem.exp()
        } else {
            let t = 1.0 - self.s;
            (a.powf(t) + t * rem).powf(1.0 / t)
        };
        ((x + 0.5).floor() as u64).clamp(e + 1, self.n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SparseBatchSpec {
        SparseBatchSpec {
            batch_size: 16,
            n_features: 4,
            pooling_min: 0,
            pooling_max: 8,
            index_space: 1000,
            distribution: IndexDistribution::Uniform,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SparseBatch::generate(&spec(), 5);
        let b = SparseBatch::generate(&spec(), 5);
        let c = SparseBatch::generate(&spec(), 6);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.indices, b.indices);
        assert_ne!(a.indices, c.indices);
    }

    #[test]
    fn bags_respect_pooling_bounds() {
        let b = SparseBatch::generate(&spec(), 1);
        for f in 0..4 {
            for s in 0..16 {
                let p = b.pooling_factor(f, s);
                assert!(p <= 8);
                assert_eq!(b.bag(f, s).len(), p);
            }
        }
    }

    #[test]
    fn lookups_in_is_the_sum_of_pooling_factors() {
        let b = SparseBatch::generate_counts_only(&spec(), 4);
        for f in 0..4 {
            for (s, len) in [(0, 16), (0, 0), (5, 1), (5, 11), (15, 1)] {
                let want: usize = (s..s + len).map(|i| b.pooling_factor(f, i)).sum();
                assert_eq!(b.lookups_in(f, s, len), want, "f={f} s={s} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample range out of range")]
    fn lookups_in_bounds_checked() {
        let _ = SparseBatch::generate_counts_only(&spec(), 4).lookups_in(0, 10, 7);
    }

    #[test]
    fn indices_in_range() {
        let b = SparseBatch::generate(&spec(), 2);
        assert!(b.indices.iter().all(|&i| i < 1000));
        assert_eq!(b.total_indices(), b.indices.len());
    }

    #[test]
    fn counts_only_batch_has_structure_but_no_data() {
        let full = SparseBatch::generate(&spec(), 3);
        let counts = SparseBatch::generate_counts_only(&spec(), 3);
        assert!(!counts.has_indices());
        assert_eq!(full.offsets, counts.offsets, "same RNG stream for sizes");
        assert_eq!(counts.total_indices(), full.total_indices());
    }

    #[test]
    #[should_panic(expected = "counts-only")]
    fn counts_only_bag_access_panics() {
        let b = SparseBatch::generate_counts_only(&spec(), 0);
        let _ = b.bag(0, 0);
    }

    #[test]
    fn from_bag_sizes_round_trips_generated_columns() {
        let b = SparseBatch::generate_counts_only(&spec(), 9);
        // Deal the batch out as per-request rows, then reassemble.
        let rows: Vec<Vec<u32>> = (0..b.batch_size())
            .map(|s| {
                (0..b.n_features())
                    .map(|f| b.pooling_factor(f, s) as u32)
                    .collect()
            })
            .collect();
        let re = SparseBatch::from_bag_sizes(b.n_features(), &rows).unwrap();
        assert_eq!(re.offsets, b.offsets, "reassembly must be bit-identical");
        assert!(!re.has_indices());
    }

    #[test]
    fn from_bag_sizes_rejects_malformed_requests() {
        assert_eq!(
            SparseBatch::from_bag_sizes(4, &[]).unwrap_err(),
            BatchAssemblyError::Empty
        );
        let rows = vec![vec![1, 2, 3, 4], vec![1, 2]];
        assert_eq!(
            SparseBatch::from_bag_sizes(4, &rows).unwrap_err(),
            BatchAssemblyError::FeatureCountMismatch {
                request: 1,
                expected: 4,
                got: 2
            }
        );
        let e = BatchAssemblyError::FeatureCountMismatch {
            request: 1,
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
    }

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let mut s = spec();
        s.distribution = IndexDistribution::Zipf { exponent: 1.2 };
        s.pooling_min = 4;
        s.index_space = 10_000;
        let b = SparseBatch::generate(&s, 7);
        let low = b.indices.iter().filter(|&&i| i < 100).count();
        // Uniform would put ~1% below 100; Zipf(1.2) puts far more.
        assert!(
            low as f64 > 0.2 * b.indices.len() as f64,
            "only {low}/{} indices in the hot region",
            b.indices.len()
        );
        assert!(b.indices.iter().all(|&i| i < 10_000));
    }

    #[test]
    fn cache_hit_fractions() {
        let uni = IndexDistribution::Uniform;
        let zipf = IndexDistribution::Zipf { exponent: 1.1 };
        // Uniform: cached fraction of the table.
        assert!((uni.cache_hit_fraction(1 << 40, 1_000_000, 24_576) - 0.0245).abs() < 1e-3);
        assert_eq!(uni.cache_hit_fraction(100, 100, 200), 1.0);
        assert_eq!(uni.cache_hit_fraction(100, 100, 0), 0.0);
        // Zipf 1.1 over a 2^40 space: a 24k-row cache already serves most
        // traffic — far above uniform.
        let z = zipf.cache_hit_fraction(1 << 40, 1_000_000, 24_576);
        assert!(z > 0.5, "zipf hit fraction {z}");
        assert!(z < 1.0);
        // More cache never hurts; more skew never hurts.
        assert!(zipf.cache_hit_fraction(1 << 40, 1_000_000, 65_536) > z);
        let steeper = IndexDistribution::Zipf { exponent: 1.5 };
        assert!(steeper.cache_hit_fraction(1 << 40, 1_000_000, 24_576) > z);
        // The s = 1 special case is finite and sane.
        let s1 = IndexDistribution::Zipf { exponent: 1.0 };
        let h = s1.cache_hit_fraction(1 << 40, 1_000_000, 24_576);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn partial_harmonic_matches_references() {
        // Fully inside the exact region: H(10, 1) known in closed form.
        assert!((partial_harmonic(10, 1.0) - 2.928_968_253_968_254).abs() < 1e-12);
        // Through the tail: H(10^6, 2) → ζ(2) − ~1/10^6.
        let zeta2 = std::f64::consts::PI.powi(2) / 6.0;
        let h = partial_harmonic(1_000_000, 2.0);
        assert!(
            (h - zeta2).abs() < 2e-6,
            "H(1e6, 2) = {h} vs ζ(2) = {zeta2}"
        );
        // Monotone in m, continuous across the exact/tail boundary.
        assert!(partial_harmonic(1 << 40, 1.1) > partial_harmonic(1 << 20, 1.1));
        let below = partial_harmonic(HARMONIC_EXACT_TERMS, 1.1);
        let above = partial_harmonic(HARMONIC_EXACT_TERMS + 1, 1.1);
        assert!(above > below && above - below < 1e-3);
    }

    #[test]
    fn zipf_sampler_shares_the_models_cumulative_law() {
        // The sampler and `cache_hit_fraction` invert/integrate one law, so
        // the empirical mass of the top-k ranks converges on H(k)/H(n).
        let (n, s, k) = (1u64 << 31, 1.2f64, 52u64);
        let sampler = ZipfSampler::new(n, s);
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 200_000u32;
        let mut hits = 0u32;
        let mut max = 0u64;
        for _ in 0..draws {
            let v = sampler.sample(&mut rng);
            hits += u32::from(v < k);
            max = max.max(v);
        }
        let measured = f64::from(hits) / f64::from(draws);
        let model = partial_harmonic(k, s) / partial_harmonic(n, s);
        assert!(
            (measured - model).abs() < 0.01,
            "top-{k} mass: measured {measured:.4} vs model {model:.4}"
        );
        // The integral tail is reachable and stays in range.
        assert!(max > HARMONIC_EXACT_TERMS && max < n, "max draw {max}");
    }

    #[test]
    fn mean_pooling_estimate() {
        let s = spec();
        assert_eq!(s.mean_pooling(), 4.0);
        let b = SparseBatch::generate(&s, 11);
        let mean = b.total_indices() as f64 / (16.0 * 4.0);
        assert!((mean - 4.0).abs() < 1.5, "observed mean pooling {mean}");
    }

    #[test]
    #[should_panic(expected = "pooling_min > pooling_max")]
    fn bad_pooling_bounds_panic() {
        let mut s = spec();
        s.pooling_min = 9;
        let _ = SparseBatch::generate(&s, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bag_bounds_checked() {
        let b = SparseBatch::generate(&spec(), 0);
        let _ = b.pooling_factor(4, 0);
    }
}
