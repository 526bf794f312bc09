//! Collective configuration.

use desim::Dur;
use gpusim::RetryPolicy;

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

/// Tuning knobs shared by all collectives.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveConfig {
    /// Schedule to use.
    pub algorithm: Algorithm,
    /// Pipeline chunk size in bytes; a transfer is split into messages of at
    /// most this size (NCCL's default buffer is 4 MiB).
    pub chunk_bytes: u64,
    /// CPU-side cost of triggering the collective (argument marshalling,
    /// enqueueing the NCCL kernel). Part of the paper's "communication
    /// control path" overhead.
    pub call_overhead: Dur,
    /// Wire efficiency of the collective's transport relative to raw
    /// one-sided stores, in `(0, 1]`. NCCL's transfers pay internal staging
    /// copies, protocol handshakes and bidirectional contention that direct
    /// GPU stores do not; 0.45 is calibrated from the paper's measured
    /// baseline communication phase (DESIGN.md §4).
    pub protocol_efficiency: f64,
    /// Retry schedule of a collective whose chunks meet the fault plan
    /// with `Faults::Retry`.
    pub retry: RetryPolicy,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            algorithm: Algorithm::Direct,
            chunk_bytes: 4 << 20,
            call_overhead: Dur::from_us(15),
            protocol_efficiency: 0.45,
            retry: RetryPolicy::default(),
        }
    }
}

impl CollectiveConfig {
    /// Override the algorithm.
    pub fn with_algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Override the chunk size. Panics on zero.
    pub fn with_chunk_bytes(mut self, c: u64) -> Self {
        assert!(c > 0, "chunk_bytes must be positive");
        self.chunk_bytes = c;
        self
    }

    /// Number of messages a `bytes`-sized transfer becomes.
    pub fn n_chunks(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.chunk_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_direct_4mib() {
        let c = CollectiveConfig::default();
        assert_eq!(c.algorithm, Algorithm::Direct);
        assert_eq!(c.chunk_bytes, 4 << 20);
    }

    #[test]
    fn n_chunks_rounds_up() {
        let c = CollectiveConfig::default().with_chunk_bytes(100);
        assert_eq!(c.n_chunks(0), 1);
        assert_eq!(c.n_chunks(1), 1);
        assert_eq!(c.n_chunks(100), 1);
        assert_eq!(c.n_chunks(101), 2);
        assert_eq!(c.n_chunks(1000), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_panics() {
        let _ = CollectiveConfig::default().with_chunk_bytes(0);
    }
}
