//! Warp-coalescing model.
//!
//! The paper notes that even though the fused kernel issues a store per
//! thread, "GPU memory warp coalescing (handled by hardware) is still in
//! effect, aggregating the message with natural locality" (§IV-A-2d). A warp
//! writing one embedding row (d consecutive floats) produces one wire
//! message of `d × 4` bytes, up to the interconnect's max payload.

/// The wire footprint of a batch of row stores after coalescing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescedBatch {
    /// Total payload bytes.
    pub payload: u64,
    /// Number of wire messages after coalescing.
    pub messages: u64,
}

impl CoalescedBatch {
    /// An empty batch.
    pub const EMPTY: CoalescedBatch = CoalescedBatch {
        payload: 0,
        messages: 0,
    };

    /// Merge two batches.
    pub fn merge(self, other: CoalescedBatch) -> CoalescedBatch {
        CoalescedBatch {
            payload: self.payload + other.payload,
            messages: self.messages + other.messages,
        }
    }
}

/// Coalesce `rows` stores of `row_bytes` contiguous bytes each into wire
/// messages of at most `max_payload` bytes. Rows are not contiguous with
/// each other (they land at scattered output offsets), so coalescing never
/// crosses a row boundary — exactly what hardware write-combining does for
/// the fused kernel's access pattern.
pub fn coalesce_rows(rows: u64, row_bytes: u32, max_payload: u32) -> CoalescedBatch {
    assert!(max_payload > 0, "max_payload must be positive");
    if rows == 0 || row_bytes == 0 {
        return CoalescedBatch::EMPTY;
    }
    let msgs_per_row = row_bytes.div_ceil(max_payload) as u64;
    CoalescedBatch {
        payload: rows * row_bytes as u64,
        messages: rows * msgs_per_row,
    }
}

/// Coalesce many `(rows, row_bytes)` batches against one interconnect and
/// merge their footprints, left to right.
pub fn coalesce_rows_many(batches: &[(u64, u32)], max_payload: u32) -> CoalescedBatch {
    assert!(max_payload > 0, "max_payload must be positive");
    batches
        .iter()
        .map(|&(rows, row_bytes)| coalesce_rows(rows, row_bytes, max_payload))
        .fold(CoalescedBatch::EMPTY, CoalescedBatch::merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_one_message() {
        // d=64 floats => 256 B row, NVLink max payload 256 B: one message.
        let b = coalesce_rows(1, 256, 256);
        assert_eq!(
            b,
            CoalescedBatch {
                payload: 256,
                messages: 1
            }
        );
    }

    #[test]
    fn wide_rows_split() {
        // d=256 floats => 1024 B row over 256 B payloads: 4 messages.
        let b = coalesce_rows(10, 1024, 256);
        assert_eq!(b.payload, 10_240);
        assert_eq!(b.messages, 40);
    }

    #[test]
    fn rows_never_merge_across_boundaries() {
        // 64 B rows in 256 B payloads: still one message per row, because
        // rows land at scattered offsets.
        let b = coalesce_rows(8, 64, 256);
        assert_eq!(b.messages, 8);
        assert_eq!(b.payload, 512);
    }

    #[test]
    fn empty_batches() {
        assert_eq!(coalesce_rows(0, 256, 256), CoalescedBatch::EMPTY);
        assert_eq!(coalesce_rows(5, 0, 256), CoalescedBatch::EMPTY);
    }

    #[test]
    fn merge_adds_fields() {
        let a = coalesce_rows(2, 256, 256);
        let b = coalesce_rows(3, 256, 256);
        let m = a.merge(b);
        assert_eq!(m.payload, 5 * 256);
        assert_eq!(m.messages, 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_payload_panics() {
        let _ = coalesce_rows(1, 1, 0);
    }

    #[test]
    fn many_matches_serial_fold() {
        let batches: Vec<(u64, u32)> = (0..37).map(|i| (i as u64 * 3, 64 + i * 32)).collect();
        let serial = batches
            .iter()
            .fold(CoalescedBatch::EMPTY, |acc, &(rows, rb)| {
                acc.merge(coalesce_rows(rows, rb, 256))
            });
        assert_eq!(coalesce_rows_many(&batches, 256), serial);
        assert_eq!(coalesce_rows_many(&[], 256), CoalescedBatch::EMPTY);
    }
}
