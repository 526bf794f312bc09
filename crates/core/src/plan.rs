//! The forward-pass plan: the structural decomposition both backends share.
//!
//! A plan fixes, per device, the order in which bags are processed, how bags
//! group into thread blocks, how many lookups each block performs and how
//! many pooled rows each block sends to each destination mini-batch owner.
//! Because the *same plan* drives the baseline's phases, the PGAS backend's
//! fused kernel and the functional executors, the timing comparison is
//! apples-to-apples and the functional outputs are bit-identical.

use crate::{PoolingOp, Sharding, SparseBatch};

/// What [`ForwardPlan::build`] reads from a batch: its shape and the lookups
/// of a run of consecutive samples of one feature. A [`SparseBatch`] answers
/// from its CSR offsets; the serving path answers from the request pool the
/// batch's requests were dealt from, without assembling a CSR.
pub trait PlanInput {
    /// Samples `N`.
    fn batch_size(&self) -> usize;
    /// Sparse features `S`.
    fn n_features(&self) -> usize;
    /// Sum of the pooling factors of `feature`'s `len` consecutive samples
    /// starting at `sample`.
    fn lookups_in(&self, feature: usize, sample: usize, len: usize) -> usize;
}

impl PlanInput for SparseBatch {
    fn batch_size(&self) -> usize {
        self.batch_size()
    }

    fn n_features(&self) -> usize {
        self.n_features()
    }

    fn lookups_in(&self, feature: usize, sample: usize, len: usize) -> usize {
        self.lookups_in(feature, sample, len)
    }
}

/// Measured (per-index) cache/dedup accounting for one thread block, stamped
/// by [`crate::backend::HotCachePlanner::annotate`] on cached or deduped
/// plans ([`DevicePlan::cache_stats`]). When present, the timing model uses
/// these counts instead of the analytic [`ForwardPlan::cache_hit`] derating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Embedding rows this block actually fetches from HBM: lookups that
    /// miss the hot-row set, collapsed to one fetch per distinct
    /// `(table, row)` when dedup is on.
    pub hbm_fetches: u64,
    /// Lookups the block still executes here (exported bags removed).
    pub lookups: u64,
    /// Bags the block still computes here (exported bags removed).
    pub n_bags: u32,
}

/// One thread block's share of a device's bags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPlan {
    /// First local bag id covered (bags are local-feature-major,
    /// sample-minor, matching the CUDA kernel's `blockIdx` mapping).
    pub first_bag: usize,
    /// Number of bags in the block.
    pub n_bags: u32,
    /// Total embedding-row reads (sum of pooling factors).
    pub lookups: u64,
    /// The block's range of its device's destination array; read it
    /// through [`DevicePlan::dest_rows`].
    dests: [u32; 2],
}

/// A bag whose lookup + pooling runs on the *sample owner* (from hot-row
/// replicas) instead of the feature's home device: every index in the bag
/// hits the feature's replicated top-K row set, so the owner can compute the
/// pooled row locally and no remote message is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImportedBag {
    /// Global feature id of the bag.
    pub feature: usize,
    /// Global sample id of the bag.
    pub sample: usize,
    /// Row reads the bag performs (its pooling factor).
    pub lookups: u32,
}

/// The per-device slice of the plan.
#[derive(Clone, Debug, PartialEq)]
pub struct DevicePlan {
    /// The device this slice runs on.
    pub device: usize,
    /// Global feature ids resident here, in local order.
    pub features: Vec<usize>,
    /// Thread-block decomposition.
    pub blocks: Vec<BlockPlan>,
    /// Every block's `(device, rows)` pairs, block after block: one flat
    /// array per device, not one allocation per block.
    dests: Vec<(usize, u64)>,
    /// Measured cache/dedup accounting, one per block on annotated plans;
    /// empty on plain plans.
    pub cache_stats: Vec<BlockCacheStats>,
    /// Total lookups across blocks.
    pub total_lookups: u64,
    /// Total bags processed here (`features.len() × batch_size`).
    pub n_bags: usize,
    /// Local bag ids this device *does not* compute or send because every
    /// index hit the hot-row cache — the sample owner computes them from
    /// replicas instead. Sorted ascending; empty on uncached plans.
    pub exported_bags: Vec<usize>,
    /// Remote-feature bags this device computes from its hot-row replicas
    /// (the flip side of other devices' `exported_bags`), ordered by
    /// `(feature, sample)`. Empty on uncached plans.
    pub imported_bags: Vec<ImportedBag>,
}

impl DevicePlan {
    /// A slice with no blocks yet, with room for `blocks` of them.
    pub(crate) fn new(device: usize, features: Vec<usize>, n_bags: usize, blocks: usize) -> Self {
        DevicePlan {
            device,
            features,
            blocks: Vec::with_capacity(blocks),
            dests: Vec::with_capacity(blocks),
            cache_stats: Vec::new(),
            total_lookups: 0,
            n_bags,
            exported_bags: Vec::new(),
            imported_bags: Vec::new(),
        }
    }

    /// Append the block of `n_bags` bags from `first_bag` that reads
    /// `lookups` rows and sends `dests`, ascending by device and zero-free.
    pub(crate) fn push_block(
        &mut self,
        first_bag: usize,
        n_bags: u32,
        lookups: u64,
        dests: impl IntoIterator<Item = (usize, u64)>,
    ) {
        let at = |len: usize| u32::try_from(len).expect("a device's destinations fit u32 indices");
        let lo = at(self.dests.len());
        self.dests.extend(dests);
        self.blocks.push(BlockPlan {
            first_bag,
            n_bags,
            lookups,
            dests: [lo, at(self.dests.len())],
        });
        self.total_lookups += lookups;
    }

    /// Release the destination array's spare capacity once every block is
    /// in: a plan is built once and kept.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.dests.shrink_to_fit();
    }

    /// Pooled output rows of `blk` (one of this slice's blocks) per
    /// destination device: `(device, rows)`, ascending by device, including
    /// the local device. On cached/deduped plans, exported bags and
    /// collapsed duplicate sends are already subtracted, so the volume
    /// counters downstream (all-to-all byte matrix, PGAS message stream)
    /// see the reduction with no extra logic.
    pub fn dest_rows(&self, blk: &BlockPlan) -> &[(usize, u64)] {
        let [lo, hi] = blk.dests;
        &self.dests[lo as usize..hi as usize]
    }

    /// Overwrite the rows of every `(device, rows)` pair, block after block
    /// in [`DevicePlan::dest_rows`] order, with `rows`; pairs left at zero
    /// are dropped. Compacts the flat array in place.
    pub(crate) fn set_dest_rows(&mut self, rows: impl IntoIterator<Item = u64>) {
        let mut rows = rows.into_iter();
        let mut w = 0;
        for blk in &mut self.blocks {
            let [lo, hi] = blk.dests;
            let start = w;
            for r in lo as usize..hi as usize {
                let dst = self.dests[r].0;
                let Some(n) = rows.next().filter(|&n| n > 0) else {
                    continue;
                };
                self.dests[w] = (dst, n);
                w += 1;
            }
            blk.dests = [start as u32, w as u32];
        }
        self.dests.truncate(w);
    }

    /// Map a local bag id back to `(global feature, sample)`.
    pub fn bag_coords(&self, local_bag: usize, batch_size: usize) -> (usize, usize) {
        let lf = local_bag / batch_size;
        (self.features[lf], local_bag % batch_size)
    }

    /// Rows this device sends to each destination, summed over blocks.
    pub fn rows_to(&self, dst: usize) -> u64 {
        (self.dests.iter())
            .filter(|&&(d, _)| d == dst)
            .map(|&(_, r)| r)
            .sum()
    }
}

/// The complete forward-pass decomposition.
#[derive(Clone, Debug, PartialEq)]
pub struct ForwardPlan {
    /// Number of devices.
    pub n_devices: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Global batch size `N`.
    pub batch_size: usize,
    /// Mini-batch stride `⌈N / n_devices⌉`: sample `s` belongs to device
    /// `s / mb_size`. When `N` does not divide evenly the last device(s)
    /// hold fewer samples (see [`ForwardPlan::mb_sizes`]).
    pub mb_size: usize,
    /// Actual mini-batch size of each device (uneven when `n_devices ∤ N`,
    /// e.g. the paper's 3-GPU runs with batch 16 384).
    pub mb_sizes: Vec<usize>,
    /// Total sparse features `S`.
    pub n_features: usize,
    /// Pooling operation.
    pub pooling: PoolingOp,
    /// Bags per thread block used in the decomposition.
    pub bags_per_block: usize,
    /// Expected fraction of row reads served from the GPU's L2 (0 until a
    /// backend stamps it from the workload's index distribution — see
    /// [`crate::IndexDistribution::cache_hit_fraction`]). Blocks carrying
    /// [`BlockCacheStats`] use their measured counts instead.
    pub cache_hit: f64,
    /// Rows replicated per remote table by the functional hot-row cache
    /// (after capacity clamping); 0 on uncached plans.
    pub cache_rows: u64,
    /// Measured fraction of this batch's row reads that hit the hot-row
    /// set (0 on uncached plans) — the empirical counterpart of
    /// [`crate::IndexDistribution::cache_hit_fraction`].
    pub measured_hit: f64,
    /// Per-device slices, indexed by device.
    pub devices: Vec<DevicePlan>,
}

impl ForwardPlan {
    /// Build the plan for `batch` under `sharding`. Row-wise, every device
    /// holds a stripe of every table, so each decomposes all `N × S` bags and
    /// sends a (partial) row per bag to the sample's owner; a block's
    /// `lookups` are then its bags' whole pooling factors, of which a device
    /// reads the share that hashes to its stripe.
    ///
    /// Panics if the batch is smaller than the device count. When the batch
    /// size does not divide evenly, mini-batches follow the ceil-split
    /// convention (first devices get `⌈N/G⌉` samples).
    ///
    /// Costs O(blocks + features) [`PlanInput::lookups_in`] calls, not
    /// O(bags): the timing model consumes pooling-factor sums per block,
    /// never per-bag state.
    pub fn build(
        batch: &(impl PlanInput + Sync),
        sharding: &Sharding,
        dim: usize,
        pooling: PoolingOp,
        bags_per_block: usize,
    ) -> ForwardPlan {
        let n_devices = sharding.n_devices();
        let n = batch.batch_size();
        assert!(bags_per_block >= 1, "bags_per_block must be >= 1");
        assert!(
            n >= n_devices,
            "batch size {n} smaller than device count {n_devices}"
        );
        let mb = n.div_ceil(n_devices);
        let mb_sizes: Vec<usize> = (0..n_devices)
            .map(|d| n.saturating_sub(d * mb).min(mb))
            .collect();
        // Each device's slice depends only on the shared batch/sharding.
        let devices = (0..n_devices)
            .map(|dev| {
                let features = sharding.features_on(dev, batch.n_features());
                let n_bags = features.len() * n;
                let mut dp =
                    DevicePlan::new(dev, features, n_bags, n_bags.div_ceil(bags_per_block));
                // Rows per destination of the block being built; zeroed
                // again as each block's destinations are read out of it.
                let mut rows_to = vec![0u64; n_devices];
                let mut first = 0usize;
                while first < n_bags {
                    let count = bags_per_block.min(n_bags - first);
                    let end = first + count;
                    // A block is a run of consecutive local bags, i.e. one
                    // contiguous sample range per local feature it touches:
                    // its lookups are a CSR offset difference per range, its
                    // destinations the overlap of that range with the
                    // mini-batch strides. No bag is visited.
                    let mut lookups = 0u64;
                    let (mut dst_lo, mut dst_hi) = (n_devices, 0);
                    let lf0 = first / n;
                    for (lf, &f) in (lf0..).zip(&dp.features[lf0..=(end - 1) / n]) {
                        // Samples `lo..hi` of local feature `lf`.
                        let lo = first.max(lf * n) - lf * n;
                        let hi = end.min((lf + 1) * n) - lf * n;
                        lookups += batch.lookups_in(f, lo, hi - lo) as u64;
                        let (d0, d1) = (lo / mb, (hi - 1) / mb);
                        for (dst, rows) in (d0..).zip(&mut rows_to[d0..=d1]) {
                            *rows += (hi.min((dst + 1) * mb) - lo.max(dst * mb)) as u64;
                        }
                        dst_lo = dst_lo.min(d0);
                        dst_hi = dst_hi.max(d1);
                    }
                    // Ascending and zero-free; a block straddling two
                    // features can leave a gap inside the touched span.
                    let dests = (dst_lo..=dst_hi)
                        .map(|dst| (dst, std::mem::take(&mut rows_to[dst])))
                        .filter(|&(_, rows)| rows > 0);
                    dp.push_block(first, count as u32, lookups, dests);
                    first = end;
                }
                dp.shrink_to_fit();
                dp
            })
            .collect();
        ForwardPlan {
            n_devices,
            dim,
            batch_size: n,
            mb_size: mb,
            mb_sizes,
            n_features: batch.n_features(),
            pooling,
            bags_per_block,
            cache_hit: 0.0,
            cache_rows: 0,
            measured_hit: 0.0,
            devices,
        }
    }

    /// First global sample index of device `dev`'s mini-batch.
    pub fn mb_start(&self, dev: usize) -> usize {
        (dev * self.mb_size).min(self.batch_size)
    }

    /// Bytes of one pooled output row.
    pub fn row_bytes(&self) -> u32 {
        (self.dim * 4) as u32
    }

    /// Elements in one symmetric output segment: `⌈N/G⌉ × S × dim`. The
    /// symmetric heap allocates the same (stride-sized) segment on every
    /// PE even when the last mini-batch is smaller.
    pub fn output_elems(&self) -> usize {
        self.mb_size * self.n_features * self.dim
    }

    /// Elements actually used in device `dev`'s output.
    pub fn output_elems_on(&self, dev: usize) -> usize {
        self.mb_sizes[dev] * self.n_features * self.dim
    }

    /// Flat output index (within a destination device's output buffer) for
    /// global `(feature, sample)`: layout `[mb, S, dim]` row-major —
    /// precisely where the next DLRM layer expects it.
    pub fn output_index(&self, feature: usize, sample: usize) -> (usize, usize) {
        let dst = sample / self.mb_size;
        let local_s = sample % self.mb_size;
        (dst, (local_s * self.n_features + feature) * self.dim)
    }

    /// Pooled rows device `dev` *receives over the wire* and must
    /// rearrange during the baseline unpack: the sum of every remote
    /// device's `dest_rows` toward `dev`. On plain plans this equals
    /// `mb_sizes[dev] × remote_features` exactly; on cached/deduped plans
    /// the exported and collapsed rows are already subtracted.
    pub fn unpack_rows(&self, dev: usize) -> u64 {
        self.devices
            .iter()
            .filter(|dp| dp.device != dev)
            .map(|dp| dp.rows_to(dev))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexDistribution, SparseBatchSpec};

    fn batch(n: usize, s: usize) -> SparseBatch {
        SparseBatch::generate(
            &SparseBatchSpec {
                batch_size: n,
                n_features: s,
                pooling_min: 0,
                pooling_max: 5,
                index_space: 100,
                distribution: IndexDistribution::Uniform,
            },
            42,
        )
    }

    fn plan(n: usize, s: usize, devs: usize, bpb: usize) -> ForwardPlan {
        let b = batch(n, s);
        ForwardPlan::build(
            &b,
            &Sharding::table_wise_block(s, devs),
            8,
            PoolingOp::Sum,
            bpb,
        )
    }

    /// The per-bag decomposition `ForwardPlan::build` used to run, kept as
    /// the oracle for the O(blocks) builder: every bag pays its own
    /// pooling-factor load and destination lookup. Returns one slice per
    /// device.
    fn per_bag_oracle(
        batch: &SparseBatch,
        sharding: &Sharding,
        bags_per_block: usize,
    ) -> Vec<DevicePlan> {
        let (n, n_devices) = (batch.batch_size(), sharding.n_devices());
        let mb = n.div_ceil(n_devices);
        (0..n_devices)
            .map(|dev| {
                let features = sharding.features_on(dev, batch.n_features());
                let n_bags = features.len() * n;
                let mut dp = DevicePlan::new(dev, features, n_bags, 0);
                let mut first = 0usize;
                while first < n_bags {
                    let count = bags_per_block.min(n_bags - first);
                    let mut lookups = 0u64;
                    let mut dest_rows: Vec<(usize, u64)> = Vec::new();
                    for b in first..first + count {
                        let (f, s) = (dp.features[b / n], b % n);
                        lookups += batch.pooling_factor(f, s) as u64;
                        let dst = s / mb;
                        match dest_rows.iter_mut().find(|(d, _)| *d == dst) {
                            Some((_, r)) => *r += 1,
                            None => dest_rows.push((dst, 1)),
                        }
                    }
                    dest_rows.sort_unstable_by_key(|&(d, _)| d);
                    dp.push_block(first, count as u32, lookups, dest_rows);
                    first += count;
                }
                dp
            })
            .collect()
    }

    proptest::proptest! {
        /// The O(blocks) builder equals the per-bag oracle field by field:
        /// batch sizes the device count does not divide, blocks that
        /// straddle features (and span several), both table-wise
        /// shardings and the row-wise one, NULL bags, 1–8 devices.
        #[test]
        fn build_matches_the_per_bag_oracle(
            devs in 1usize..9,
            extra in 0usize..40,
            per_dev in 1usize..4,
            bpb in 1usize..70,
            layout in 0usize..3,
            seed in 0u64..1000,
        ) {
            use proptest::prelude::*;
            let (n, s) = (devs + extra, devs * per_dev);
            let b = SparseBatch::generate_counts_only(
                &SparseBatchSpec {
                    batch_size: n,
                    n_features: s,
                    pooling_min: 0,
                    pooling_max: 5,
                    index_space: 100,
                    distribution: IndexDistribution::Uniform,
                },
                seed,
            );
            let sharding = match layout {
                0 => Sharding::table_wise_block(s, devs),
                1 => Sharding::table_wise_round_robin(s, devs),
                _ => Sharding::RowWise { n_devices: devs },
            };
            let p = ForwardPlan::build(&b, &sharding, 8, PoolingOp::Sum, bpb);
            let oracle = per_bag_oracle(&b, &sharding, bpb);
            prop_assert_eq!(p.devices.len(), oracle.len());
            for (dp, want_dp) in p.devices.iter().zip(&oracle) {
                prop_assert_eq!(dp.blocks.len(), want_dp.blocks.len());
                for (got, want) in dp.blocks.iter().zip(&want_dp.blocks) {
                    prop_assert_eq!(got.first_bag, want.first_bag);
                    prop_assert_eq!(got.n_bags, want.n_bags);
                    prop_assert_eq!(got.lookups, want.lookups);
                    prop_assert_eq!(dp.dest_rows(got), want_dp.dest_rows(want));
                }
                prop_assert!(dp.cache_stats.is_empty());
                prop_assert_eq!(dp.total_lookups, want_dp.total_lookups);
                prop_assert_eq!(dp.n_bags, dp.features.len() * n);
            }
        }
    }

    #[test]
    fn plan_covers_every_bag_exactly_once() {
        let p = plan(16, 4, 2, 5);
        for dp in &p.devices {
            let covered: usize = dp.blocks.iter().map(|b| b.n_bags as usize).sum();
            assert_eq!(covered, dp.n_bags);
            // Blocks tile the bag range without gaps.
            let mut next = 0;
            for b in &dp.blocks {
                assert_eq!(b.first_bag, next);
                next += b.n_bags as usize;
            }
            assert_eq!(next, dp.n_bags);
        }
        let total_bags: usize = p.devices.iter().map(|d| d.n_bags).sum();
        assert_eq!(total_bags, 16 * 4);
    }

    #[test]
    fn lookups_match_batch_pooling() {
        let b = batch(16, 4);
        let p = ForwardPlan::build(&b, &Sharding::table_wise_block(4, 2), 8, PoolingOp::Sum, 7);
        let expect: u64 = b.total_indices() as u64;
        let got: u64 = p.devices.iter().map(|d| d.total_lookups).sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn dest_rows_partition_each_block() {
        let p = plan(16, 4, 4, 3);
        for dp in &p.devices {
            for blk in &dp.blocks {
                let rows: u64 = dp.dest_rows(blk).iter().map(|&(_, r)| r).sum();
                assert_eq!(rows, blk.n_bags as u64);
                // Destinations are sorted and unique.
                for w in dp.dest_rows(blk).windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
            }
        }
    }

    #[test]
    fn rows_to_every_destination_equal_under_uniform_layout() {
        // Each device has mb_size samples per destination per feature.
        let p = plan(16, 4, 2, 100);
        for dp in &p.devices {
            for dst in 0..2 {
                assert_eq!(dp.rows_to(dst), (dp.features.len() * 8) as u64);
            }
        }
    }

    #[test]
    fn unpack_rows_matches_closed_form_on_plain_plans() {
        for (n, devs) in [(16, 2), (15, 2), (16, 4)] {
            let p = plan(n, 4, devs, 5);
            for dp in &p.devices {
                let remote_features = p.n_features - dp.features.len();
                assert_eq!(
                    p.unpack_rows(dp.device),
                    (p.mb_sizes[dp.device] * remote_features) as u64,
                    "n={n} devs={devs} dev={}",
                    dp.device
                );
                assert!(dp.exported_bags.is_empty() && dp.imported_bags.is_empty());
                assert!(dp.cache_stats.is_empty());
            }
        }
    }

    #[test]
    fn bag_coords_round_trip() {
        let p = plan(16, 4, 2, 5);
        let dp = &p.devices[1];
        for bag in 0..dp.n_bags {
            let (f, s) = dp.bag_coords(bag, p.batch_size);
            assert!(dp.features.contains(&f));
            assert!(s < 16);
        }
        // First bag of device 1 is its first feature, sample 0.
        assert_eq!(dp.bag_coords(0, 16), (dp.features[0], 0));
    }

    #[test]
    fn output_index_lands_in_owner_minibatch() {
        let p = plan(16, 4, 4, 5);
        assert_eq!(p.mb_size, 4);
        let (dst, idx) = p.output_index(2, 9);
        assert_eq!(dst, 9 / 4);
        #[allow(clippy::identity_op)] // spelled out: (mb_row * S + feature) * dim
        let expect = ((9 % 4) * 4 + 2) * 8;
        assert_eq!(idx, expect);
        assert!(idx < p.output_elems());
    }

    #[test]
    fn blocks_respect_bags_per_block() {
        let p = plan(16, 4, 2, 7);
        for dp in &p.devices {
            for (i, blk) in dp.blocks.iter().enumerate() {
                if i + 1 < dp.blocks.len() {
                    assert_eq!(blk.n_bags, 7);
                } else {
                    assert!(blk.n_bags <= 7 && blk.n_bags > 0);
                }
            }
        }
    }

    #[test]
    fn indivisible_batch_splits_unevenly() {
        // 15 samples over 2 devices: ceil split 8 + 7 (the paper's 3-GPU
        // runs with batch 16384 rely on this).
        let p = plan(15, 4, 2, 5);
        assert_eq!(p.mb_size, 8);
        assert_eq!(p.mb_sizes, vec![8, 7]);
        assert_eq!(p.mb_start(0), 0);
        assert_eq!(p.mb_start(1), 8);
        assert_eq!(p.output_elems_on(1), 7 * 4 * 8);
        // Every sample has exactly one owner and rows balance.
        for dp in &p.devices {
            assert_eq!(
                dp.rows_to(0) + dp.rows_to(1),
                (dp.features.len() * 15) as u64
            );
        }
    }

    #[test]
    fn three_devices_paper_batch() {
        // The actual failing shape from the paper: 16384 % 3 != 0.
        let b = batch(16, 3);
        let p = ForwardPlan::build(
            &b,
            &crate::Sharding::table_wise_round_robin(3, 3),
            8,
            PoolingOp::Sum,
            4,
        );
        assert_eq!(p.mb_size, 6);
        assert_eq!(p.mb_sizes, vec![6, 6, 4]);
        let (dst, idx) = p.output_index(0, 15);
        assert_eq!(dst, 2);
        assert!(idx < p.output_elems_on(2));
    }

    #[test]
    #[should_panic(expected = "smaller than device count")]
    fn degenerate_batch_panics() {
        let b = batch(2, 3);
        let _ = ForwardPlan::build(
            &b,
            &crate::Sharding::table_wise_round_robin(3, 3),
            8,
            PoolingOp::Sum,
            4,
        );
    }

    #[test]
    fn row_wise_plan_sends_every_bag_to_its_samples_owner() {
        // 3 devices do not divide N = 16, and 5 bags per block do not divide
        // N·S = 64: every device decomposes all bags, sample `s` goes to
        // device `s / mb`, and the last block is partial.
        let (b, sharding) = (batch(16, 4), Sharding::RowWise { n_devices: 3 });
        let p = ForwardPlan::build(&b, &sharding, 8, PoolingOp::Sum, 5);
        assert_eq!(p.mb_sizes, vec![6, 6, 4]);
        for (dp, want) in p.devices.iter().zip(per_bag_oracle(&b, &sharding, 5)) {
            assert_eq!(dp.features, vec![0, 1, 2, 3]);
            assert_eq!(*dp, want, "device {}", dp.device);
            assert_eq!(dp.blocks.last().map(|blk| blk.n_bags), Some(4));
            assert_eq!(dp.n_bags, 64);
            for (g, &mb) in p.mb_sizes.iter().enumerate() {
                assert_eq!(dp.rows_to(g), (mb * p.n_features) as u64);
            }
        }
    }
}
