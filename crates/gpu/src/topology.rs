//! Interconnect topology: which GPU pairs are linked, and how fast.

use desim::Dur;

/// Parameters of one direction of a point-to-point link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Base (first-byte) latency.
    pub latency: Dur,
    /// Protocol header/flit overhead charged per message. This is the
    /// paper's "small messages are not bandwidth-efficient" cost: a 256 B
    /// payload with a 32 B header wastes 11% of wire time.
    pub header_bytes: u32,
}

impl LinkSpec {
    /// One direction of an NVLink 2.0 peer pair as provisioned in a 4-V100
    /// DGX: a single 25 GB/s brick per pair of which fine-grained one-sided
    /// store streams sustain ~10 GB/s (calibrated against the paper's
    /// measured phase ratios — see DESIGN.md §4), ~1.3 µs one-sided write
    /// latency, 32 B packet header.
    pub fn nvlink_v100() -> Self {
        LinkSpec {
            bandwidth: 10e9,
            latency: Dur::from_ns(1300),
            header_bytes: 32,
        }
    }

    /// A RoCE/IB scale-out NIC as the pod fabric sees it: 5 GB/s sustained
    /// per direction, ~6 µs one-sided write latency, and a large
    /// per-message cost. `header_bytes` here folds the whole per-WQE
    /// overhead (doorbell, WQE fetch, address translation, ACK) into a
    /// byte-equivalent at wire rate: 1024 B ≈ 205 ns/message ≈ a ~5 M msg/s
    /// message-rate ceiling — the header-dominated regime where per-row
    /// one-sided stores stop being bandwidth-efficient (paper §V;
    /// "Demystifying NVSHMEM" inter-node small-message cliffs).
    pub fn roce() -> Self {
        LinkSpec {
            bandwidth: 5e9,
            latency: Dur::from_us(6),
            header_bytes: 1024,
        }
    }

    /// Wire time for a transfer of `payload` bytes split into `n_messages`
    /// messages (headers charged per message).
    pub fn wire_time(&self, payload: u64, n_messages: u64) -> Dur {
        let bytes = payload + n_messages * self.header_bytes as u64;
        Dur::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// A route between two GPUs that does not exist: indices out of range or a
/// self-link. Returned by [`Topology::try_link`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoLink {
    /// Requested source GPU.
    pub src: usize,
    /// Requested destination GPU.
    pub dst: usize,
}

impl std::fmt::Display for NoLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no link from GPU {} to GPU {}", self.src, self.dst)
    }
}

impl std::error::Error for NoLink {}

/// The set of directed links between `n` GPUs.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    // Row-major [src][dst]; None on the diagonal (no self-link needed).
    links: Vec<Option<LinkSpec>>,
    node_of: Vec<usize>,
}

impl Topology {
    /// A fully connected crossbar of `n` GPUs with identical links —
    /// the paper's NVLink-connected DGX.
    pub fn crossbar(n: usize, link: LinkSpec) -> Self {
        assert!(n >= 1, "topology needs at least one GPU");
        let mut links = vec![None; n * n];
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    links[s * n + d] = Some(link);
                }
            }
        }
        Topology {
            n,
            links,
            node_of: vec![0; n],
        }
    }

    /// `nodes` nodes of `per_node` GPUs each: intra-node pairs use `intra`,
    /// inter-node pairs use `inter`: the pod fabrics of EXT-11.
    pub fn multi_node(nodes: usize, per_node: usize, intra: LinkSpec, inter: LinkSpec) -> Self {
        assert!(nodes >= 1 && per_node >= 1);
        let n = nodes * per_node;
        let node_of: Vec<usize> = (0..n).map(|g| g / per_node).collect();
        let mut links = vec![None; n * n];
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    links[s * n + d] = Some(if node_of[s] == node_of[d] {
                        intra
                    } else {
                        inter
                    });
                }
            }
        }
        Topology { n, links, node_of }
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n
    }

    /// Node index of a GPU (always 0 in single-node topologies).
    pub fn node_of(&self, gpu: usize) -> usize {
        self.node_of[gpu]
    }

    /// Number of distinct nodes (1 for every single-node topology).
    pub fn nodes(&self) -> usize {
        self.node_of.iter().copied().max().unwrap_or(0) + 1
    }

    /// The gateway GPU of the node containing `gpu`: the lowest-index GPU
    /// in that node. Gateway-routed schemes (hierarchical alltoall, the
    /// PGAS gateway proxy) funnel cross-node traffic through this device.
    pub fn gateway_of(&self, gpu: usize) -> usize {
        let node = self.node_of[gpu];
        self.node_of
            .iter()
            .position(|&n| n == node)
            .expect("gpu's own node exists")
    }

    /// All GPUs in `node`, ascending.
    pub fn node_members(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.node_of
            .iter()
            .enumerate()
            .filter(move |&(_, &n)| n == node)
            .map(|(g, _)| g)
    }

    /// True if both GPUs are in the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// The directed link from `src` to `dst`, or [`NoLink`] if the pair is
    /// out of range or unconnected (the diagonal) — the fallible lookup the
    /// serving path uses so a malformed route degrades instead of aborting.
    pub fn try_link(&self, src: usize, dst: usize) -> Result<&LinkSpec, NoLink> {
        if src >= self.n || dst >= self.n {
            return Err(NoLink { src, dst });
        }
        self.links[src * self.n + dst]
            .as_ref()
            .ok_or(NoLink { src, dst })
    }

    /// The directed link from `src` to `dst`. Panics on the diagonal or
    /// out-of-range indices — for trusted transfer schedules; serving code
    /// uses [`Topology::try_link`].
    pub fn link(&self, src: usize, dst: usize) -> &LinkSpec {
        assert!(src < self.n && dst < self.n, "GPU index out of range");
        self.try_link(src, dst)
            .unwrap_or_else(|e| panic!("no link from GPU {} to GPU {}", e.src, e.dst))
    }

    /// Iterate all directed pairs `(src, dst)` with `src != dst`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |s| (0..self.n).filter(move |&d| d != s).map(move |d| (s, d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_charges_headers_per_message() {
        let l = LinkSpec {
            bandwidth: 1e9, // 1 B/ns
            latency: Dur::from_ns(100),
            header_bytes: 32,
        };
        assert_eq!(l.wire_time(1000, 1), Dur::from_ns(1032));
        assert_eq!(l.wire_time(1000, 10), Dur::from_ns(1320));
        // Many small messages cost strictly more wire time than one big one.
        assert!(l.wire_time(1 << 20, 4096) > l.wire_time(1 << 20, 1));
    }

    #[test]
    fn crossbar_links_every_pair() {
        let t = Topology::crossbar(4, LinkSpec::nvlink_v100());
        assert_eq!(t.n_gpus(), 4);
        assert_eq!(t.pairs().count(), 12);
        for (s, d) in t.pairs() {
            assert!(t.link(s, d).bandwidth > 0.0);
            assert!(t.same_node(s, d));
        }
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn self_link_panics() {
        let t = Topology::crossbar(2, LinkSpec::nvlink_v100());
        let _ = t.link(1, 1);
    }

    #[test]
    fn try_link_returns_typed_errors() {
        let t = Topology::crossbar(2, LinkSpec::nvlink_v100());
        assert!(t.try_link(0, 1).is_ok());
        assert_eq!(t.try_link(1, 1).unwrap_err(), NoLink { src: 1, dst: 1 });
        assert_eq!(t.try_link(0, 7).unwrap_err(), NoLink { src: 0, dst: 7 });
        assert_eq!(
            t.try_link(1, 1).unwrap_err().to_string(),
            "no link from GPU 1 to GPU 1"
        );
    }

    #[test]
    fn multi_node_distinguishes_links() {
        let intra = LinkSpec::nvlink_v100();
        let inter = LinkSpec::roce();
        let t = Topology::multi_node(2, 2, intra, inter);
        assert_eq!(t.n_gpus(), 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 1);
        assert!(t.same_node(0, 1));
        assert!(!t.same_node(1, 2));
        assert_eq!(t.link(0, 1).bandwidth, intra.bandwidth);
        assert_eq!(t.link(0, 2).bandwidth, inter.bandwidth);
        assert_eq!(t.link(3, 0).bandwidth, inter.bandwidth);
    }

    #[test]
    fn presets_ordering() {
        // NVLink beats the pod NIC on every axis: the NIC is the slower
        // tier and the header-dominated one.
        assert!(LinkSpec::nvlink_v100().bandwidth > LinkSpec::roce().bandwidth);
        assert!(LinkSpec::nvlink_v100().latency < LinkSpec::roce().latency);
        assert!(LinkSpec::nvlink_v100().header_bytes < LinkSpec::roce().header_bytes);
    }

    #[test]
    fn roce_is_message_rate_limited() {
        // At 256 B payloads most of the wire time is per-message overhead:
        // one coalesced 64 KiB transfer beats 256 separate 256 B messages
        // by more than 4x.
        let l = LinkSpec::roce();
        let flat = l.wire_time(64 << 10, 256);
        let agg = l.wire_time(64 << 10, 1);
        assert!(flat > agg * 4);
    }

    #[test]
    fn nodes_and_gateways() {
        let t = Topology::crossbar(4, LinkSpec::nvlink_v100());
        assert_eq!(t.nodes(), 1);
        for g in 0..4 {
            assert_eq!(t.gateway_of(g), 0);
        }

        let t = Topology::multi_node(3, 4, LinkSpec::nvlink_v100(), LinkSpec::roce());
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.gateway_of(0), 0);
        assert_eq!(t.gateway_of(3), 0);
        assert_eq!(t.gateway_of(4), 4);
        assert_eq!(t.gateway_of(7), 4);
        assert_eq!(t.gateway_of(11), 8);
        assert_eq!(t.node_members(1).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        // A gateway is always inside its own node.
        for g in 0..12 {
            assert!(t.same_node(g, t.gateway_of(g)));
        }
    }
}
