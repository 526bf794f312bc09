//! Open-loop request generation: seeded arrival processes over the
//! workload's synthetic sparse-input distribution.

use std::fmt;
use std::sync::Arc;

use desim::{Dur, SimTime};
use emb_retrieval::memo::Memo;
use emb_retrieval::{BatchAssemblyError, EmbLayerConfig, PlanInput, SparseBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_qps` requests/second — the classic
    /// open-loop load model.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_qps: f64,
    },
    /// Bursty ON/OFF (interrupted Poisson) arrivals: Poisson at `rate_qps`
    /// during each `on` window, silence for `off`, repeating. Mean offered
    /// rate is `rate_qps · on / (on + off)`; the bursts are what stress a
    /// micro-batcher's tail latency.
    OnOff {
        /// Arrival rate inside ON windows, requests per second.
        rate_qps: f64,
        /// ON window length.
        on: Dur,
        /// OFF window length.
        off: Dur,
    },
}

/// One inference request: an arrival instant plus the per-feature bag sizes
/// (pooling factors) of one sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Generation-order id (0, 1, 2, …).
    pub id: u64,
    /// Arrival instant on the simulated clock.
    pub arrival: SimTime,
    /// Bag size per sparse feature: the request's column of the pool it was
    /// dealt from, read in place. Its length must equal the workload's
    /// feature count; the batcher counts mismatches as malformed and sheds
    /// them.
    pub bags: Bags,
}

/// Canonical batches of bag sizes, `u16` (pooling factors are at most
/// `pooling_max`, 128 in the paper) and feature-major per batch
/// (`sizes[w][f · N + s]`, the order [`SparseBatch::generate_counts_only`]
/// produces), so one feature's run of consecutive samples is one contiguous
/// slice.
#[derive(Debug)]
struct Pool {
    /// Samples per canonical batch, `N`.
    batch_size: usize,
    n_features: usize,
    sizes: Vec<Vec<u16>>,
}

/// A request's bag sizes: column `col` of canonical batch `which` of a
/// shared pool, 16 bytes whatever the feature count. Requests dealt by a
/// [`RequestGenerator`] point into its pool; `From<Vec<u32>>` makes a
/// hand-built one its own one-sample pool. Two handles are equal when their
/// sizes are.
#[derive(Clone)]
pub struct Bags {
    pool: Arc<Pool>,
    which: u32,
    col: u32,
}

impl Bags {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.pool.n_features
    }

    /// Whether the request has no features at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bag size of feature `f`, or `None` past the last feature.
    pub fn get(&self, f: usize) -> Option<u32> {
        (f < self.len()).then(|| self.sizes()[f * self.pool.batch_size + self.col as usize].into())
    }

    /// The bag sizes, copied out in feature order.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let sizes = &self.sizes()[self.col as usize..];
        sizes
            .iter()
            .step_by(self.pool.batch_size)
            .map(|&b| b.into())
    }

    /// The canonical batch this column belongs to.
    fn sizes(&self) -> &[u16] {
        &self.pool.sizes[self.which as usize]
    }
}

/// A bag size at the pool's width.
fn pool_width(size: u32) -> u16 {
    assert!(
        size <= u16::MAX as u32,
        "bag size {size} exceeds the pool's u16"
    );
    size as u16
}

impl From<Vec<u32>> for Bags {
    /// Panics on a bag size above `u16::MAX`, which no pool holds.
    fn from(sizes: Vec<u32>) -> Self {
        let pool = Pool {
            batch_size: 1,
            n_features: sizes.len(),
            sizes: vec![sizes.into_iter().map(pool_width).collect()],
        };
        Bags {
            pool: Arc::new(pool),
            which: 0,
            col: 0,
        }
    }
}

impl PartialEq for Bags {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Bags {}

impl fmt::Debug for Bags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A closed batch as its plan reads it: the requests' pool columns, grouped
/// into runs of consecutive columns of one canonical batch, then empty
/// samples up to a minimum count. A [`PlanInput`] over borrowed pool
/// slices — planning it reads the bag sizes where the pool keeps them and
/// assembles no CSR.
pub struct PoolWindow<'a> {
    n_features: usize,
    /// Requests plus padding.
    batch_size: usize,
    /// Ascending by `start`, tiling the requests without gaps.
    runs: Vec<Run<'a>>,
}

/// Samples `start..start + len` of a window: columns `col..col + len` of
/// one canonical batch.
struct Run<'a> {
    start: usize,
    len: usize,
    sizes: &'a [u16],
    /// The canonical batch's sample count, the stride between features.
    stride: usize,
    col: usize,
}

impl<'a> PoolWindow<'a> {
    /// The window of `requests` (in order), padded with empty samples to at
    /// least `min_samples`. A run ends at a canonical-batch boundary and at
    /// any gap between consecutive requests' columns — shedding, timeouts
    /// and requeues leave those — so runs are keyed on where the sizes
    /// live, not on request ids. Fails as [`SparseBatch::from_bag_sizes`]
    /// does: on no requests, or on one with the wrong feature count.
    pub fn new(
        requests: &'a [Request],
        n_features: usize,
        min_samples: usize,
    ) -> Result<Self, BatchAssemblyError> {
        if requests.is_empty() || n_features == 0 {
            return Err(BatchAssemblyError::Empty);
        }
        let mut runs: Vec<Run<'a>> = Vec::new();
        for (s, r) in requests.iter().enumerate() {
            let bags = &r.bags;
            if bags.len() != n_features {
                return Err(BatchAssemblyError::FeatureCountMismatch {
                    request: s,
                    expected: n_features,
                    got: bags.len(),
                });
            }
            let (sizes, col) = (bags.sizes(), bags.col as usize);
            match runs.last_mut() {
                // One buffer per canonical batch (never empty: S, N ≥ 1).
                Some(run) if run.sizes.as_ptr() == sizes.as_ptr() && run.col + run.len == col => {
                    run.len += 1;
                }
                _ => runs.push(Run {
                    start: s,
                    len: 1,
                    sizes,
                    stride: bags.pool.batch_size,
                    col,
                }),
            }
        }
        Ok(PoolWindow {
            n_features,
            batch_size: requests.len().max(min_samples),
            runs,
        })
    }
}

impl PlanInput for PoolWindow<'_> {
    fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    /// Sums the contiguous pool slice of every run the sample range
    /// overlaps, the first found by binary search; padding adds nothing.
    fn lookups_in(&self, feature: usize, sample: usize, len: usize) -> usize {
        debug_assert!(feature < self.n_features && sample + len <= self.batch_size);
        let end = sample + len;
        let first = self.runs.partition_point(|r| r.start + r.len <= sample);
        let overlapping = self.runs[first..].iter().take_while(|r| r.start < end);
        overlapping
            .map(|r| {
                let (lo, hi) = (sample.max(r.start), end.min(r.start + r.len));
                lane_sum(&r.sizes_of(feature)[lo - r.start..hi - r.start])
            })
            .sum::<u64>() as usize
    }

    /// One walk over the runs in sample order, each piece summed from the
    /// run slices it covers; the pieces past the last request are empty.
    fn lookups_by_piece(&self, feature: usize, head: usize, piece: usize, out: &mut Vec<u64>) {
        let n = self.batch_size;
        // The current piece ends at sample `bound`; `at` is the next sample.
        let mut bound = if head > 0 { head.min(n) } else { piece.min(n) };
        let (mut at, mut sum) = (0, 0u64);
        for r in &self.runs {
            let mut rest = r.sizes_of(feature);
            while !rest.is_empty() {
                let (part, tail) = rest.split_at((bound - at).min(rest.len()));
                (sum, at, rest) = (sum + lane_sum(part), at + part.len(), tail);
                if at == bound {
                    out.push(std::mem::take(&mut sum));
                    bound = (bound + piece).min(n);
                }
            }
        }
        while at < n {
            out.push(std::mem::take(&mut sum));
            (at, bound) = (bound, (bound + piece).min(n));
        }
    }
}

impl Run<'_> {
    /// The run's bag sizes of `feature`, one a sample.
    fn sizes_of(&self, feature: usize) -> &[u16] {
        &self.sizes[feature * self.stride + self.col..][..self.len]
    }
}

/// The sum of `sizes`, added in `u32` lanes the compiler vectorizes: a lane
/// takes 2¹⁶ bag sizes before it could overflow.
fn lane_sum(sizes: &[u16]) -> u64 {
    let chunks = sizes.chunks(1 << 16);
    chunks
        .map(|c| u64::from(c.iter().map(|&b| u32::from(b)).sum::<u32>()))
        .sum()
}

/// Seeded open-loop request source.
///
/// Sparse features are dealt from the workload's canonical batch pool:
/// request `r` carries column `r mod N` of canonical batch
/// `(r / N) mod distinct_batches`, the same batches (same seeds) the
/// closed-loop experiments replay. `N` consecutive aligned requests
/// therefore reassemble *bit-identically* into a canonical batch — the
/// bridge that lets serving latencies be checked against Table I timings.
#[derive(Clone, Debug)]
pub struct RequestGenerator {
    pool: Arc<Pool>,
    process: ArrivalProcess,
    seed: u64,
}

/// The pools requests are dealt from: a pure function of the workload
/// config, shared by every generator of that config (one per serve load
/// point).
static POOLS: Memo<EmbLayerConfig, Pool> = Memo::new();

/// Drop every memoized request pool, and every prepared set of the layer
/// below ([`emb_retrieval::backend::forget_prepared`], which says when).
pub fn forget_memoized() {
    POOLS.clear();
    emb_retrieval::backend::forget_prepared();
}

/// The pool of `cfg` and the bytes it occupies.
fn build_pool(cfg: &EmbLayerConfig) -> (Pool, usize) {
    let spec = cfg.batch_spec();
    let (n, s, batches) = (cfg.batch_size, cfg.n_features, cfg.distinct_batches.max(1));
    assert!(
        n.max(batches) <= u32::MAX as usize,
        "a request handle holds its column and batch as u32"
    );
    assert!(
        cfg.pooling_max <= u32::from(u16::MAX),
        "the request pool holds bag sizes as u16"
    );
    // Canonical batches are independently seeded: fill the pool in seed
    // index order.
    let sizes: Vec<Vec<u16>> = (0..batches)
        .map(|i| {
            let b = SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i));
            let mut sizes = Vec::with_capacity(n * s);
            for f in 0..s {
                sizes.extend((0..n).map(|smp| b.pooling_factor(f, smp) as u16));
            }
            sizes
        })
        .collect();
    let bytes = sizes.iter().map(|b| 2 * b.len()).sum();
    let pool = Pool {
        batch_size: n,
        n_features: s,
        sizes,
    };
    (pool, bytes)
}

impl RequestGenerator {
    /// Build a generator for `cfg`'s workload. `seed` drives arrival times
    /// only; sparse content comes from `cfg`'s own batch seeds.
    pub fn new(cfg: &EmbLayerConfig, process: ArrivalProcess, seed: u64) -> Self {
        RequestGenerator {
            pool: POOLS.get_or_build(cfg.clone(), build_pool),
            process,
            seed,
        }
    }

    /// The canonical batch pool index and column request `id` is dealt from.
    pub fn deal_of(&self, id: u64) -> (usize, usize) {
        let n = self.pool.batch_size as u64;
        let which = ((id / n) as usize) % self.pool.sizes.len();
        (which, (id % n) as usize)
    }

    /// Generate the first `n` requests, in arrival order. A request's bag
    /// sizes are a handle into the shared pool: the only allocation is the
    /// returned `Vec`.
    pub fn generate(&self, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA221_7EA7_0DDB_A11A);
        let mut out = Vec::with_capacity(n);
        // Arrival instants are produced in "active time" (the coordinate in
        // which the process is plain Poisson) and mapped to wall time.
        let mut active_s = 0.0f64;
        let rate = match self.process {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::OnOff { rate_qps, .. } => {
                rate_qps
            }
        };
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate must be positive"
        );
        for id in 0..n as u64 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            active_s += -u.ln() / rate;
            let arrival = match self.process {
                ArrivalProcess::Poisson { .. } => SimTime::ZERO + Dur::from_secs_f64(active_s),
                ArrivalProcess::OnOff { on, off, .. } => {
                    // Active time τ lives inside ON windows; wall time skips
                    // the OFF gaps between them.
                    let on_s = on.as_secs_f64().max(f64::MIN_POSITIVE);
                    let cycles = (active_s / on_s).floor();
                    SimTime::ZERO + Dur::from_secs_f64(active_s + cycles * off.as_secs_f64())
                }
            };
            let (which, col) = self.deal_of(id);
            let bags = Bags {
                pool: Arc::clone(&self.pool),
                which: which as u32,
                col: col as u32,
            };
            out.push(Request { id, arrival, bags });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        c.distinct_batches = 2;
        c
    }

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let g = RequestGenerator::new(&cfg(), ArrivalProcess::Poisson { rate_qps: 1e5 }, 7);
        let a = g.generate(100);
        let b = g.generate(100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.len(), 100);
        let g2 = RequestGenerator::new(&cfg(), ArrivalProcess::Poisson { rate_qps: 1e5 }, 8);
        assert_ne!(g2.generate(100), a, "seed must matter");
    }

    #[test]
    fn requests_reassemble_canonical_batches() {
        let c = cfg();
        let g = RequestGenerator::new(&c, ArrivalProcess::Poisson { rate_qps: 1e5 }, 0);
        let n = c.batch_size;
        let reqs = g.generate(2 * n);
        // First N requests = canonical batch 0, next N = canonical batch 1.
        for (j, chunk) in reqs.chunks(n).enumerate() {
            let canon = SparseBatch::generate_counts_only(&c.batch_spec(), c.batch_seed(j));
            let rows: Vec<Vec<u32>> = chunk.iter().map(|r| r.bags.to_vec()).collect();
            let re = SparseBatch::from_bag_sizes(c.n_features, &rows).unwrap();
            for f in 0..c.n_features {
                for (s, r) in chunk.iter().enumerate() {
                    assert_eq!(re.pooling_factor(f, s), canon.pooling_factor(f, s));
                    assert_eq!(r.bags.get(f), Some(re.pooling_factor(f, s) as u32));
                }
            }
            assert_eq!(chunk[0].bags.get(c.n_features), None);
        }
    }

    #[test]
    fn handles_compare_by_their_sizes() {
        let c = cfg();
        let g = RequestGenerator::new(&c, ArrivalProcess::Poisson { rate_qps: 1e5 }, 0);
        let r = &g.generate(3)[2];
        let copy = Bags::from(r.bags.to_vec());
        assert_eq!(copy, r.bags, "a hand-built copy equals the pool column");
        assert_eq!(format!("{copy:?}"), format!("{:?}", r.bags.to_vec()));
        assert_eq!((copy.len(), copy.is_empty()), (c.n_features, false));
        let mut other = r.bags.to_vec();
        other[0] += 1;
        assert_ne!(Bags::from(other), r.bags);
        assert_ne!(Bags::from(vec![1, 2]), Bags::from(vec![1, 2, 3]));
        assert_eq!(std::mem::size_of::<Bags>(), 16);
    }

    #[test]
    #[should_panic(expected = "bag sizes as u16")]
    fn a_pool_refuses_bag_sizes_past_u16() {
        let mut c = cfg();
        c.pooling_max = u32::from(u16::MAX) + 1;
        let _ = RequestGenerator::new(&c, ArrivalProcess::Poisson { rate_qps: 1e5 }, 0);
    }

    #[test]
    fn a_window_splits_into_runs_of_consecutive_pool_columns() {
        let c = cfg();
        let n = c.batch_size;
        let g = RequestGenerator::new(&c, ArrivalProcess::Poisson { rate_qps: 1e5 }, 0);
        let reqs = g.generate(3 * n);
        // Crosses a canonical-batch boundary, then skips a request.
        let mut window: Vec<Request> = reqs[n - 2..n + 2].to_vec();
        window.extend_from_slice(&reqs[n + 3..n + 5]);
        window.push(Request {
            id: u64::MAX,
            arrival: SimTime::ZERO,
            bags: vec![7; c.n_features].into(),
        });
        let w = PoolWindow::new(&window, c.n_features, 16).unwrap();
        let runs: Vec<(usize, usize, usize)> =
            w.runs.iter().map(|r| (r.start, r.len, r.col)).collect();
        assert_eq!(runs, [(0, 2, n - 2), (2, 2, 0), (4, 2, 3), (6, 1, 0)]);
        assert_eq!(w.batch_size(), 16);
        for f in 0..c.n_features {
            for lo in 0..16 {
                for hi in lo..=16 {
                    let want: u32 = window
                        .get(lo..hi.min(window.len()))
                        .unwrap_or_default()
                        .iter()
                        .map(|r| r.bags.get(f).unwrap())
                        .sum();
                    assert_eq!(w.lookups_in(f, lo, hi - lo), want as usize);
                }
            }
            // One walk for every piece equals a `lookups_in` call a piece.
            for (head, piece) in (0..18).flat_map(|h| (1..18).map(move |p| (h, p))) {
                let (mut walked, mut each) = (Vec::new(), Vec::new());
                w.lookups_by_piece(f, head, piece, &mut walked);
                let (mut lo, mut hi) = (
                    0,
                    if head > 0 {
                        head.min(16)
                    } else {
                        piece.min(16)
                    },
                );
                while lo < 16 {
                    each.push(w.lookups_in(f, lo, hi - lo) as u64);
                    (lo, hi) = (hi, (hi + piece).min(16));
                }
                assert_eq!(walked, each, "feature {f}, head {head}, piece {piece}");
            }
        }
        let mut short = window.clone();
        short[3].bags = vec![1].into();
        assert_eq!(
            PoolWindow::new(&short, c.n_features, 16).err(),
            Some(BatchAssemblyError::FeatureCountMismatch {
                request: 3,
                expected: c.n_features,
                got: 1
            })
        );
        assert_eq!(
            PoolWindow::new(&[], c.n_features, 16).err(),
            Some(BatchAssemblyError::Empty)
        );
    }

    #[test]
    fn forgetting_the_pool_rebuilds_the_same_requests() {
        let mut c = cfg();
        c.seed += 77; // a config no other test in this binary asks for
        let p = ArrivalProcess::Poisson { rate_qps: 1e5 };
        let before = RequestGenerator::new(&c, p, 3);
        forget_memoized();
        let after = RequestGenerator::new(&c, p, 3);
        assert!(!Arc::ptr_eq(&before.pool, &after.pool));
        assert_eq!(
            before.generate(3 * c.batch_size),
            after.generate(3 * c.batch_size)
        );
    }

    #[test]
    fn poisson_rate_is_respected() {
        let rate = 2e5;
        let g = RequestGenerator::new(&cfg(), ArrivalProcess::Poisson { rate_qps: rate }, 3);
        let reqs = g.generate(4000);
        let span = (reqs.last().unwrap().arrival - reqs[0].arrival).as_secs_f64();
        let observed = 3999.0 / span;
        assert!(
            (observed - rate).abs() / rate < 0.1,
            "observed {observed} vs {rate}"
        );
    }

    #[test]
    fn onoff_is_burstier_than_poisson_at_equal_mean_rate() {
        let on = Dur::from_us(50);
        let off = Dur::from_us(150);
        // ON rate 4e5 with 25% duty → mean 1e5.
        let p = ArrivalProcess::OnOff {
            rate_qps: 4e5,
            on,
            off,
        };
        let g = RequestGenerator::new(&cfg(), p, 11);
        let reqs = g.generate(2000);
        // All arrivals land inside ON windows of the 200 µs cycle.
        let cycle = (on + off).as_ns();
        for r in &reqs {
            let phase = r.arrival.as_ns() % cycle;
            assert!(
                phase <= on.as_ns() + 1,
                "arrival at phase {phase} of cycle {cycle} is inside an OFF window"
            );
        }
        // Mean rate matches over the long run.
        let span = (reqs.last().unwrap().arrival - reqs[0].arrival).as_secs_f64();
        let observed = 1999.0 / span;
        assert!((observed - 1e5).abs() / 1e5 < 0.15, "observed {observed}");
    }
}
