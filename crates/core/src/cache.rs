//! Hot-row replication cache + per-batch index deduplication.
//!
//! Real recommendation traffic is Zipf-skewed: a few hot rows absorb most
//! lookups. Under table-wise sharding a bag's lookups always run on the
//! feature's *home* device, so the remote traffic both backends pay for is
//! the pooled output row of every remote-owned bag. This module removes the
//! redundant part of that traffic at the source:
//!
//! * [`HotRowCache`] — every device replicates the top-K rows of each
//!   *remote* table, frequency-ranked from a seeded warmup trace (a replay
//!   of the run's canonical batch pool) with a deterministic tie-break by
//!   row index. A remote bag whose indices *all* land in the hot set is
//!   **exported**: the sample owner computes its pooled row locally from
//!   the replicas (charged as local reads) and no remote message is sent.
//!   Replicated rows are bit-identical to the home shard
//!   ([`HotReplicas::materialize`] uses the same placement-independent
//!   init), so moving the compute moves no bits.
//! * Per-batch **dedup** — duplicate `(table, row)` fetches within a thread
//!   block collapse to one HBM fetch, and duplicate identical bags headed
//!   to the same destination collapse to one message + fan-out on arrival.
//!
//! [`HotCachePlanner::annotate`] stamps both effects onto a
//! [`ForwardPlan`]: per-block measured [`BlockCacheStats`] replace the
//! analytic `cache_hit` derating, `dest_rows` shrink so every downstream
//! volume counter (all-to-all byte matrix, PGAS message stream) sees the
//! reduction, and exported bags move to the owner's `imported_bags`. Both
//! knobs default off ([`EmbLayerConfig::hot_cache_rows`] = 0,
//! [`EmbLayerConfig::dedup`] = false), in which case plans — and therefore
//! every CSV — are byte-identical to a build without this module.

use std::sync::Mutex;

use gpusim::GpuSpec;
use rayon::prelude::*;

use crate::{
    BlockCacheStats, EmbLayerConfig, EmbeddingShard, EmbeddingTableSpec, ForwardPlan, ImportedBag,
    IndexHasher, SparseBatch,
};

/// One SplitMix64-style mixing step, used to derive probe positions and
/// bag-content fingerprints.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A reusable open-addressing set/map for per-batch deduplication.
///
/// Linear probing over a power-of-two table, with generation-stamped slots
/// so [`IndexDedupMap::clear`] is O(1) — no per-batch allocation and no
/// `HashMap` rehash churn on the serve hot path. Duplicate *keys* are
/// allowed (a 64-bit fingerprint can collide): the caller supplies a
/// `matches` predicate that verifies a candidate entry, and non-matching
/// same-key entries simply occupy later probe slots.
#[derive(Debug)]
pub struct IndexDedupMap {
    keys: Vec<u64>,
    values: Vec<u32>,
    stamps: Vec<u32>,
    generation: u32,
    len: usize,
}

impl IndexDedupMap {
    /// A map ready to hold about `n` entries before its first grow.
    pub fn with_capacity(n: usize) -> Self {
        let cap = (n * 2).next_power_of_two().max(16);
        IndexDedupMap {
            keys: vec![0; cap],
            values: vec![0; cap],
            stamps: vec![0; cap],
            generation: 1,
            len: 0,
        }
    }

    /// Entries currently live.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry in O(1) by advancing the generation stamp.
    pub fn clear(&mut self) {
        self.len = 0;
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// If an entry with `key` for which `matches(value)` holds exists,
    /// return its value; otherwise insert `(key, value)` and return `None`.
    pub fn insert_if_absent(
        &mut self,
        key: u64,
        value: u32,
        mut matches: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = mix(0x5EED, key) as usize & mask;
        loop {
            if self.stamps[i] != self.generation {
                self.keys[i] = key;
                self.values[i] = value;
                self.stamps[i] = self.generation;
                self.len += 1;
                return None;
            }
            if self.keys[i] == key && matches(self.values[i]) {
                return Some(self.values[i]);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let live: Vec<(u64, u32)> = (0..self.keys.len())
            .filter(|&i| self.stamps[i] == self.generation)
            .map(|i| (self.keys[i], self.values[i]))
            .collect();
        let cap = self.keys.len() * 2;
        self.keys = vec![0; cap];
        self.values = vec![0; cap];
        self.stamps = vec![0; cap];
        self.generation = 1;
        self.len = 0;
        let mask = cap - 1;
        for (k, v) in live {
            let mut i = mix(0x5EED, k) as usize & mask;
            while self.stamps[i] == self.generation {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.values[i] = v;
            self.stamps[i] = self.generation;
            self.len += 1;
        }
    }
}

/// The per-feature hot-row sets every device replicates for its remote
/// tables: membership (bitmask + sorted row list), not row data — see
/// [`HotReplicas`] for the functional payload.
#[derive(Clone, Debug)]
pub struct HotRowCache {
    /// Per global feature: hot row ids, sorted ascending.
    rows: Vec<Vec<u32>>,
    /// Per global feature: one bit per table row.
    masks: Vec<Vec<u64>>,
    rows_per_table: u64,
}

impl HotRowCache {
    /// Rank rows of every table by warmup-trace frequency and keep the top
    /// `cfg.hot_cache_rows`, clamped by the device's spare HBM capacity
    /// ([`GpuSpec::replica_rows_capacity`]) and the table size. The warmup
    /// trace is a replay of the run's canonical batch pool (seeds
    /// `cfg.batch_seed(0..distinct_batches)`), so ranking is deterministic;
    /// ties break toward the smaller row index.
    pub fn build(cfg: &EmbLayerConfig, gpu: &GpuSpec) -> Self {
        assert!(
            cfg.table_rows <= u32::MAX as usize,
            "hot-row cache assumes table rows fit in u32"
        );
        let spec = cfg.table_spec();
        let sharding = cfg.sharding();
        let mut capacity = u64::MAX;
        for dev in 0..sharding.n_devices() {
            let local = sharding.features_on(dev, cfg.n_features).len() as u64;
            let remote = cfg.n_features as u64 - local;
            let resident = local * spec.table_bytes();
            capacity =
                capacity.min(gpu.replica_rows_capacity(resident, spec.row_bytes() as u64, remote));
        }
        let k = cfg.hot_cache_rows.min(capacity).min(cfg.table_rows as u64) as usize;

        let distinct = cfg.distinct_batches.max(1).min(cfg.n_batches.max(1));
        let warm: Vec<SparseBatch> = (0..distinct)
            .into_par_iter()
            .map(|i| SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(i)))
            .collect();
        // Per-feature counting + selection is independent, so it fans out.
        let rows: Vec<Vec<u32>> = (0..cfg.n_features)
            .into_par_iter()
            .map(|f| {
                let h = IndexHasher::new(f, cfg.table_rows, cfg.seed);
                let mut c = vec![0u32; cfg.table_rows];
                for b in &warm {
                    for s in 0..b.batch_size() {
                        for &raw in b.bag(f, s) {
                            let r = h.row(raw);
                            c[r] = c[r].saturating_add(1);
                        }
                    }
                }
                let mut order: Vec<u32> = (0..c.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| c[b as usize].cmp(&c[a as usize]).then(a.cmp(&b)));
                let mut top = order[..k].to_vec();
                top.sort_unstable();
                top
            })
            .collect();
        let masks = rows
            .iter()
            .map(|hot| {
                let mut m = vec![0u64; cfg.table_rows.div_ceil(64)];
                for &r in hot {
                    m[r as usize / 64] |= 1 << (r as usize % 64);
                }
                m
            })
            .collect();
        HotRowCache {
            rows,
            masks,
            rows_per_table: k as u64,
        }
    }

    /// Rows replicated per table after capacity clamping.
    pub fn rows_per_table(&self) -> u64 {
        self.rows_per_table
    }

    /// Number of features (tables) covered.
    pub fn n_features(&self) -> usize {
        self.rows.len()
    }

    /// The hot row ids of `feature`, sorted ascending.
    pub fn hot_rows(&self, feature: usize) -> &[u32] {
        &self.rows[feature]
    }

    /// Whether `row` of `feature`'s table is in the hot set.
    #[inline]
    pub fn is_hot(&self, feature: usize, row: usize) -> bool {
        self.masks[feature][row / 64] & (1 << (row % 64)) != 0
    }
}

/// The functional payload of the cache: actual replica row data, materialized
/// with the same placement-independent per-feature init as the home shards,
/// so every replicated row is bit-identical to its home copy.
#[derive(Clone, Debug)]
pub struct HotReplicas {
    /// Per global feature: (sorted hot rows, replica data `[k × dim]` flat).
    tables: Vec<(Vec<u32>, Vec<f32>)>,
    dim: usize,
}

impl HotReplicas {
    /// Draw each feature's hot rows from its init stream
    /// ([`EmbeddingShard::init_row`]), never building the full table.
    /// Holds all features' replicas; a device only ever reads the remote
    /// ones listed in its plan's `imported_bags`.
    pub fn materialize(cache: &HotRowCache, spec: EmbeddingTableSpec, seed: u64) -> Self {
        let tables = (0..cache.n_features())
            .into_par_iter()
            .map(|f| {
                let rows = cache.hot_rows(f).to_vec();
                let mut data = vec![0.0; rows.len() * spec.dim];
                for (&r, out) in rows.iter().zip(data.chunks_exact_mut(spec.dim)) {
                    EmbeddingShard::init_row(f, r as usize, spec, seed, out);
                }
                (rows, data)
            })
            .collect();
        HotReplicas {
            tables,
            dim: spec.dim,
        }
    }

    /// The replica of `row` in `feature`'s table. Panics if the row is not
    /// replicated — imported bags only ever reference hot rows.
    pub fn row(&self, feature: usize, row: usize) -> &[f32] {
        let (rows, data) = &self.tables[feature];
        let i = rows
            .binary_search(&(row as u32))
            .unwrap_or_else(|_| panic!("row {row} of feature {feature} is not replicated"));
        &data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Per-worker dedup scratch, pooled so steady-state annotation performs no
/// allocation (the serve hot path plans a batch per admission window).
#[derive(Debug)]
struct Workspace {
    rows: IndexDedupMap,
    bags: IndexDedupMap,
}

/// Stamps cache and dedup effects onto forward plans. Build once per run
/// (the warmup ranking is the expensive part), annotate every batch.
#[derive(Debug)]
pub struct HotCachePlanner {
    cache: Option<HotRowCache>,
    dedup: bool,
    seed: u64,
    table_rows: usize,
    pool: Mutex<Vec<Workspace>>,
}

/// What one device's profiling pass produced, before being applied to the
/// plan (kept separate so devices profile in parallel).
struct DeviceProfile {
    stats: Vec<BlockCacheStats>,
    /// The rows each `(dst, rows)` pair of the device's blocks still sends,
    /// in [`crate::DevicePlan::dest_rows`] order.
    dest_rows: Vec<u64>,
    exported: Vec<usize>,
    exports: Vec<ImportedBag>,
    hits: u64,
    lookups: u64,
}

fn bump(v: &mut Vec<(usize, u64)>, dst: usize, by: u64) {
    match v.iter_mut().find(|(d, _)| *d == dst) {
        Some((_, r)) => *r += by,
        None => v.push((dst, by)),
    }
}

impl HotCachePlanner {
    /// A planner for `cfg`, or `None` when both the cache and dedup are
    /// disabled (plans then stay untouched — the byte-identity guarantee).
    pub fn new(cfg: &EmbLayerConfig, gpu: &GpuSpec) -> Option<Self> {
        if cfg.hot_cache_rows == 0 && !cfg.dedup {
            return None;
        }
        let cache = (cfg.hot_cache_rows > 0).then(|| HotRowCache::build(cfg, gpu));
        Some(HotCachePlanner {
            cache,
            dedup: cfg.dedup,
            seed: cfg.seed,
            table_rows: cfg.table_rows,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// The hot-row sets, when the cache is enabled.
    pub fn cache(&self) -> Option<&HotRowCache> {
        self.cache.as_ref()
    }

    /// Profile `batch` against the hot sets and stamp `plan` with measured
    /// per-block stats, shrunken destination rows, exported bags and the
    /// receiving devices' `imported_bags`. Requires a full batch — cache
    /// and dedup accounting are per-index, not per-count.
    pub fn annotate(&self, plan: &mut ForwardPlan, batch: &SparseBatch) {
        assert!(
            batch.has_indices(),
            "cache/dedup profiling needs raw indices; generate full batches \
             when hot_cache_rows > 0 or dedup is on"
        );
        let n = plan.batch_size;
        let mb = plan.mb_size;
        let profiles: Vec<DeviceProfile> = {
            let p: &ForwardPlan = plan;
            (0..p.devices.len())
                .into_par_iter()
                .map(|i| self.profile_device(&p.devices[i], p, batch, n, mb))
                .collect()
        };

        let mut total_hits = 0u64;
        let mut total_lookups = 0u64;
        let mut imports: Vec<Vec<ImportedBag>> = vec![Vec::new(); plan.n_devices];
        for (dp, prof) in plan.devices.iter_mut().zip(profiles) {
            dp.cache_stats = prof.stats;
            dp.set_dest_rows(prof.dest_rows);
            dp.exported_bags = prof.exported;
            for ib in prof.exports {
                imports[ib.sample / mb].push(ib);
            }
            total_hits += prof.hits;
            total_lookups += prof.lookups;
        }
        for (dp, mut im) in plan.devices.iter_mut().zip(imports) {
            im.sort_unstable_by_key(|b| (b.feature, b.sample));
            dp.imported_bags = im;
        }
        plan.cache_rows = self.cache.as_ref().map_or(0, |c| c.rows_per_table());
        plan.measured_hit = if total_lookups > 0 {
            total_hits as f64 / total_lookups as f64
        } else {
            0.0
        };
    }

    fn profile_device(
        &self,
        dp: &crate::DevicePlan,
        plan: &ForwardPlan,
        batch: &SparseBatch,
        n: usize,
        mb: usize,
    ) -> DeviceProfile {
        let hashers: Vec<IndexHasher> = dp
            .features
            .iter()
            .map(|&f| IndexHasher::new(f, self.table_rows, self.seed))
            .collect();
        let mut ws = self
            .pool
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| Workspace {
                rows: IndexDedupMap::with_capacity(plan.bags_per_block * 64),
                bags: IndexDedupMap::with_capacity(plan.bags_per_block),
            });
        let mut prof = DeviceProfile {
            stats: Vec::with_capacity(dp.blocks.len()),
            dest_rows: Vec::with_capacity(dp.blocks.len()),
            exported: Vec::new(),
            exports: Vec::new(),
            hits: 0,
            lookups: 0,
        };
        let mut rows_buf: Vec<(u32, bool)> = Vec::new();
        // Per block: `(dst, rows)` exported or collapsed, taken off its sends.
        let mut removed: Vec<(usize, u64)> = Vec::new();
        for blk in &dp.blocks {
            ws.rows.clear();
            ws.bags.clear();
            let mut stats = BlockCacheStats {
                hbm_fetches: 0,
                lookups: 0,
                n_bags: 0,
            };
            removed.clear();
            for bag in blk.first_bag..blk.first_bag + blk.n_bags as usize {
                let lf = bag / n;
                let sample = bag % n;
                let f = dp.features[lf];
                let dst = sample / mb;
                let idxs = batch.bag(f, sample);
                rows_buf.clear();
                let mut all_hot = true;
                for &raw in idxs {
                    let row = hashers[lf].row(raw);
                    let hot = self.cache.as_ref().is_some_and(|c| c.is_hot(f, row));
                    all_hot &= hot;
                    prof.hits += hot as u64;
                    rows_buf.push((row as u32, hot));
                }
                prof.lookups += idxs.len() as u64;
                if self.cache.is_some() && dst != dp.device && all_hot {
                    // Export: the owner computes this bag from replicas;
                    // nothing is fetched, computed or sent here.
                    prof.exported.push(bag);
                    bump(&mut removed, dst, 1);
                    prof.exports.push(ImportedBag {
                        feature: f,
                        sample,
                        lookups: idxs.len() as u32,
                    });
                    continue;
                }
                stats.lookups += idxs.len() as u64;
                stats.n_bags += 1;
                for &(row, hot) in &rows_buf {
                    if hot {
                        continue; // served by the replicated hot set
                    }
                    if self.dedup {
                        let key = ((lf as u64) << 40) | row as u64;
                        if ws.rows.insert_if_absent(key, 0, |_| true).is_none() {
                            stats.hbm_fetches += 1;
                        }
                    } else {
                        stats.hbm_fetches += 1;
                    }
                }
                if self.dedup && dst != dp.device {
                    // An identical earlier bag headed to the same owner:
                    // send one pooled row, fan out on arrival.
                    let mut h = mix(lf as u64, dst as u64);
                    h = mix(h, idxs.len() as u64);
                    for &raw in idxs {
                        h = mix(h, raw);
                    }
                    let dup = ws
                        .bags
                        .insert_if_absent(h, bag as u32, |prev| {
                            let pb = prev as usize;
                            pb / n == lf && batch.bag(f, pb % n) == idxs
                        })
                        .is_some();
                    if dup {
                        bump(&mut removed, dst, 1);
                    }
                }
            }
            prof.stats.push(stats);
            for &(dst, rows) in dp.dest_rows(blk) {
                let gone = removed
                    .iter()
                    .find(|&&(d, _)| d == dst)
                    .map_or(0, |&(_, r)| r);
                prof.dest_rows.push(rows - gone);
            }
        }
        self.pool.lock().unwrap().push(ws);
        prof
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::plan_for_batch;
    use crate::IndexDistribution;

    fn zipf_cfg(g: usize, cache: u64, dedup: bool) -> EmbLayerConfig {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        cfg.distribution = IndexDistribution::Zipf { exponent: 1.2 };
        cfg.hot_cache_rows = cache;
        cfg.dedup = dedup;
        cfg
    }

    #[test]
    fn dedup_map_inserts_clears_and_grows() {
        let mut m = IndexDedupMap::with_capacity(4);
        assert!(m.is_empty());
        for i in 0..100u64 {
            assert_eq!(m.insert_if_absent(i, i as u32, |_| true), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            assert_eq!(m.insert_if_absent(i, 999, |_| true), Some(i as u32));
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.insert_if_absent(7, 1, |_| true), None);
        // Same key, caller-rejected match → second entry coexists.
        assert_eq!(m.insert_if_absent(7, 2, |v| v == 2), None);
        assert_eq!(m.insert_if_absent(7, 3, |v| v == 2), Some(2));
    }

    #[test]
    fn hot_sets_are_deterministic_and_frequency_ranked() {
        let cfg = zipf_cfg(2, 64, false);
        let gpu = GpuSpec::v100();
        let a = HotRowCache::build(&cfg, &gpu);
        let b = HotRowCache::build(&cfg, &gpu);
        assert_eq!(a.rows_per_table(), 64);
        for f in 0..cfg.n_features {
            assert_eq!(a.hot_rows(f), b.hot_rows(f), "feature {f}");
            assert!(a.hot_rows(f).windows(2).all(|w| w[0] < w[1]), "sorted");
            for &r in a.hot_rows(f) {
                assert!(a.is_hot(f, r as usize));
            }
        }
        // The hot set must actually catch skewed traffic: its warmup-trace
        // frequency mass dominates a random same-size set's.
        let h = IndexHasher::new(0, cfg.table_rows, cfg.seed);
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let mut hits = 0usize;
        let mut total = 0usize;
        for s in 0..batch.batch_size() {
            for &raw in batch.bag(0, s) {
                hits += a.is_hot(0, h.row(raw)) as usize;
                total += 1;
            }
        }
        let frac = hits as f64 / total as f64;
        let uniform = 64.0 / cfg.table_rows as f64;
        assert!(
            frac > 3.0 * uniform,
            "hot-set hit {frac:.3} vs uniform {uniform:.3}"
        );
    }

    #[test]
    fn capacity_clamps_replica_rows() {
        let mut cfg = zipf_cfg(2, u64::MAX, false);
        cfg.hot_cache_rows = cfg.table_rows as u64 * 10;
        let cache = HotRowCache::build(&cfg, &GpuSpec::v100());
        assert_eq!(cache.rows_per_table(), cfg.table_rows as u64);
        // A GPU with no spare memory admits no replicas at all.
        let mut tiny = GpuSpec::v100();
        tiny.mem_capacity = 0;
        let none = HotRowCache::build(&cfg, &tiny);
        assert_eq!(none.rows_per_table(), 0);
    }

    #[test]
    fn replicas_are_bit_identical_to_home_shard() {
        let cfg = zipf_cfg(2, 48, false);
        let cache = HotRowCache::build(&cfg, &GpuSpec::v100());
        let spec = cfg.table_spec();
        let replicas = HotReplicas::materialize(&cache, spec, cfg.seed);
        for f in [0usize, cfg.n_features - 1] {
            let home = EmbeddingShard::materialize(&[f], spec, cfg.seed);
            for &r in cache.hot_rows(f) {
                let a = replicas.row(f, r as usize);
                let b = home.row(f, r as usize);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "feature {f} row {r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not replicated")]
    fn replica_access_outside_hot_set_panics() {
        let cfg = zipf_cfg(2, 1, false);
        let cache = HotRowCache::build(&cfg, &GpuSpec::v100());
        let replicas = HotReplicas::materialize(&cache, cfg.table_spec(), cfg.seed);
        let hot = cache.hot_rows(0)[0] as usize;
        let cold = (hot + 1) % cfg.table_rows;
        let _ = replicas.row(0, cold);
    }

    #[test]
    fn annotate_conserves_rows_and_work() {
        let cfg = zipf_cfg(2, 512, true);
        let gpu = GpuSpec::v100();
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let plain = {
            let mut c = zipf_cfg(2, 512, true);
            c.hot_cache_rows = 0;
            c.dedup = false;
            plan_for_batch(&c, &batch, &gpu)
        };
        let cached = plan_for_batch(&cfg, &batch, &gpu);
        assert!(cached.cache_rows > 0);
        assert!(cached.measured_hit > 0.0 && cached.measured_hit <= 1.0);
        let mut imported_total = 0usize;
        for (dp, pp) in cached.devices.iter().zip(&plain.devices) {
            imported_total += dp.imported_bags.len();
            // Exported bags + bags still computed here = all bags.
            assert_eq!(dp.cache_stats.len(), dp.blocks.len());
            let computed: u64 = dp.cache_stats.iter().map(|s| s.n_bags as u64).sum();
            assert_eq!(computed + dp.exported_bags.len() as u64, dp.n_bags as u64);
            assert!(dp.exported_bags.windows(2).all(|w| w[0] < w[1]));
            // Volume never grows, per destination.
            for dst in 0..cached.n_devices {
                assert!(dp.rows_to(dst) <= pp.rows_to(dst));
            }
            // HBM fetches never exceed executed lookups.
            for s in &dp.cache_stats {
                assert!(s.hbm_fetches <= s.lookups);
            }
        }
        let exported_total: usize = cached.devices.iter().map(|d| d.exported_bags.len()).sum();
        assert_eq!(imported_total, exported_total);
        assert!(
            exported_total > 0,
            "zipf 1.2 with a large cache must export"
        );
    }

    #[test]
    fn disabled_knobs_leave_plans_untouched() {
        let mut cfg = zipf_cfg(2, 0, false);
        cfg.hot_cache_rows = 0;
        assert!(HotCachePlanner::new(&cfg, &GpuSpec::v100()).is_none());
    }

    #[test]
    #[should_panic(expected = "raw indices")]
    fn annotate_rejects_counts_only_batches() {
        let cfg = zipf_cfg(2, 16, true);
        let gpu = GpuSpec::v100();
        let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(0));
        let _ = plan_for_batch(&cfg, &batch, &gpu);
    }
}
