//! Collective configuration.

use desim::Dur;

/// Pipeline chunk size in bytes: a collective's transfer is split into
/// messages of at most this size (NCCL's default buffer is 4 MiB).
pub(crate) const CHUNK_BYTES: u64 = 4 << 20;

/// Which communication schedule a collective uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Pairwise peer-to-peer over the crossbar (NCCL on NVLink).
    Direct,
    /// Neighbor-ring forwarding in `n − 1` steps.
    Ring,
    /// Topology-aware two-level schedule for pod fabrics: intra-node pairs
    /// go direct over the crossbar; cross-node traffic is gathered to the
    /// source node's gateway, crosses the slow tier as one aggregate
    /// transfer per ordered node pair, then scatters inside the destination
    /// node. On a single-node topology this is exactly [`Algorithm::Direct`].
    Hierarchical,
}

/// CPU-side cost of triggering a collective (argument marshalling,
/// enqueueing the NCCL kernel). Part of the paper's "communication control
/// path" overhead.
pub const CALL_OVERHEAD: Dur = Dur::from_us(15);

/// Wire efficiency of the collective's transport relative to raw one-sided
/// stores, in `(0, 1]`. NCCL's transfers pay internal staging copies,
/// protocol handshakes and bidirectional contention that direct GPU stores
/// do not; 0.45 is calibrated from the paper's measured baseline
/// communication phase (DESIGN.md §4).
pub const PROTOCOL_EFFICIENCY: f64 = 0.45;

/// The collectives' one setting that callers vary.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveConfig {
    /// Schedule to use.
    pub algorithm: Algorithm,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            algorithm: Algorithm::Direct,
        }
    }
}

impl CollectiveConfig {
    /// Override the algorithm.
    pub fn with_algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Number of messages a `bytes`-sized transfer becomes (4 MiB chunks,
    /// NCCL's default buffer).
    pub fn n_chunks(bytes: u64) -> u64 {
        bytes.div_ceil(CHUNK_BYTES).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_direct() {
        assert_eq!(CollectiveConfig::default().algorithm, Algorithm::Direct);
    }

    #[test]
    fn n_chunks_rounds_up() {
        let n_chunks = CollectiveConfig::n_chunks;
        assert_eq!(n_chunks(0), 1);
        assert_eq!(n_chunks(1), 1);
        assert_eq!(n_chunks(CHUNK_BYTES), 1);
        assert_eq!(n_chunks(CHUNK_BYTES + 1), 2);
        assert_eq!(n_chunks(10 * CHUNK_BYTES), 10);
    }
}
