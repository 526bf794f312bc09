//! Open-loop request generation: seeded arrival processes over the
//! workload's synthetic sparse-input distribution.

use std::sync::Arc;

use desim::{Dur, SimTime};
use emb_retrieval::memo::Memo;
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

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

impl ArrivalProcess {
    /// Long-run mean arrival rate in requests per second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_qps } => rate_qps,
            ArrivalProcess::OnOff { rate_qps, on, off } => {
                let cycle = (on + off).as_secs_f64();
                if cycle == 0.0 {
                    rate_qps
                } else {
                    rate_qps * on.as_secs_f64() / cycle
                }
            }
        }
    }
}

/// One inference request: an arrival instant plus the per-feature bag sizes
/// (pooling factors) of one sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Generation-order id (0, 1, 2, …).
    pub id: u64,
    /// Arrival instant on the simulated clock.
    pub arrival: SimTime,
    /// Bag size per sparse feature, `bags[f]` = pooling factor of feature
    /// `f`. Length must equal the workload's feature count; the batcher
    /// counts mismatches as malformed and sheds them.
    pub bags: Vec<u32>,
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
    n_features: usize,
    batch_size: usize,
    pool: Arc<Pool>,
    process: ArrivalProcess,
    seed: u64,
}

/// The canonical pool as requests read it: per canonical batch, `u32` bag
/// sizes row-major by *sample* (`rows[s · S + f]`), so a request's `bags`
/// is one contiguous row. A pure function of the workload config, shared
/// by every generator of that config (one per serve load point).
type Pool = Vec<Vec<u32>>;

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
    // Canonical batches are independently seeded: fill the pool in
    // parallel, ordered by seed index.
    let pool: Pool = (0..cfg.distinct_batches.max(1))
        .into_par_iter()
        .map(|i| sample_major(&SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i))))
        .collect();
    let bytes = pool.iter().map(|rows| 4 * rows.len()).sum();
    (pool, bytes)
}

/// Transpose a batch's feature-major bag sizes to sample-major, in tiles
/// small enough that both the columns read and the rows written stay in L1.
fn sample_major(b: &SparseBatch) -> Vec<u32> {
    const TILE: usize = 64;
    let (n, s) = (b.batch_size(), b.n_features());
    let mut rows = vec![0u32; n * s];
    for s0 in (0..n).step_by(TILE) {
        for f0 in (0..s).step_by(TILE) {
            for f in f0..(f0 + TILE).min(s) {
                for smp in s0..(s0 + TILE).min(n) {
                    rows[smp * s + f] = b.pooling_factor(f, smp) as u32;
                }
            }
        }
    }
    rows
}

impl RequestGenerator {
    /// Build a generator for `cfg`'s workload. `seed` drives arrival times
    /// only; sparse content comes from `cfg`'s own batch seeds.
    pub fn new(cfg: &EmbLayerConfig, process: ArrivalProcess, seed: u64) -> Self {
        RequestGenerator {
            n_features: cfg.n_features,
            batch_size: cfg.batch_size,
            pool: POOLS.get_or_build(cfg.clone(), build_pool),
            process,
            seed,
        }
    }

    /// The canonical batch pool index and column request `id` is dealt from.
    pub fn deal_of(&self, id: u64) -> (usize, usize) {
        let col = (id % self.batch_size as u64) as usize;
        let which = ((id / self.batch_size as u64) as usize) % self.pool.len();
        (which, col)
    }

    /// Generate the first `n` requests, in arrival order.
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
            let bags = self.pool[which][col * self.n_features..][..self.n_features].to_vec();
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
            let rows: Vec<Vec<u32>> = chunk.iter().map(|r| r.bags.clone()).collect();
            let re = SparseBatch::from_bag_sizes(c.n_features, &rows).unwrap();
            for f in 0..c.n_features {
                for s in 0..n {
                    assert_eq!(re.pooling_factor(f, s), canon.pooling_factor(f, s));
                }
            }
        }
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
        assert!((p.mean_rate() - 1e5).abs() < 1.0);
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
