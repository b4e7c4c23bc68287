//! Matrix fingerprinting: the cache key of the serving layer.
//!
//! A fingerprint is cheap (one O(nnz) pass, no allocation) and binds the
//! cached plan to the *exact* matrix it was composed for:
//!
//! * dimensions and non-zero count (checked verbatim, not hashed);
//! * a 64-bit hash of the row-pointer array (row structure);
//! * a 64-bit hash of the column-index array (column structure);
//! * a 64-bit hash of the value bits.
//!
//! Each array hash runs `LANES` independent xor-multiply chains over
//! 64-bit words (4-byte items packed two to a word), word `i` feeding
//! lane `i % LANES`, so consecutive multiplies do not wait on each
//! other; the lanes and the array length are folded together at the
//! end.
//!
//! The value hash matters because a cached plan carries the matrix's
//! *values* inside its CELL buckets (or CSR clone): two matrices with
//! identical structure but different values must never share a plan, or
//! a cache hit would silently return the wrong product.

use lf_sparse::{CsrMatrix, Scalar};
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over a stream of words, finished with a splitmix64
/// avalanche so short inputs still diffuse into all output bits.
#[derive(Clone, Copy)]
struct WordHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl WordHasher {
    fn new() -> Self {
        WordHasher(FNV_OFFSET)
    }

    #[inline]
    fn write(&mut self, word: u64) {
        // FNV-1a one byte at a time is slow; word-at-a-time with the same
        // xor/multiply structure keeps the distribution.
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    fn finish(self) -> u64 {
        // splitmix64 finalizer.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Independent hash chains per array. A single FNV chain is bound by
/// multiply latency (each word waits on the previous product); eight
/// chains keep the multiplier busy every cycle.
const LANES: usize = 8;

/// Hash an array of 4- or 8-byte items: 4-byte items (column indices,
/// `f32` value bits) are packed two to a 64-bit word, halving the
/// multiplies. `word` must be injective and, for 4-byte items, fit in
/// 32 bits.
#[inline]
fn hash_array<W: Copy>(items: &[W], word: impl Fn(W) -> u64) -> u64 {
    if std::mem::size_of::<W>() == 4 {
        hash_words::<W, 2>(items, word)
    } else {
        hash_words::<W, 1>(items, word)
    }
}

/// Hash `items`, `K` to a 64-bit word, in [`LANES`] interleaved FNV-1a
/// chains (word `i` feeds lane `i % LANES`), each seeded differently,
/// then fold the lanes and the item count through one more chain and
/// the splitmix64 finisher.
///
/// Every step is a bijection of the lane state for a fixed input word,
/// packing is injective, and the fold is a bijection of each lane for
/// fixed others, so changing any single item always changes the hash;
/// the count separates inputs that differ only by trailing zeros.
#[inline]
fn hash_words<W: Copy, const K: usize>(items: &[W], word: impl Fn(W) -> u64) -> u64 {
    let pack = |group: &[W]| {
        group
            .iter()
            .enumerate()
            .fold(0u64, |acc, (j, &w)| acc | word(w) << (j * 64 / K))
    };
    let mut lanes: [u64; LANES] =
        std::array::from_fn(|i| FNV_OFFSET ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut chunks = items.chunks_exact(LANES * K);
    for chunk in &mut chunks {
        for (lane, group) in lanes.iter_mut().zip(chunk.chunks_exact(K)) {
            *lane = (*lane ^ pack(group)).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, group) in lanes.iter_mut().zip(chunks.remainder().chunks(K)) {
        *lane = (*lane ^ pack(group)).wrapping_mul(FNV_PRIME);
    }
    let mut h = WordHasher::new();
    for lane in lanes {
        h.write(lane);
    }
    h.write(items.len() as u64);
    h.finish()
}

/// Identity of a sparse matrix for plan caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Non-zero count.
    pub nnz: usize,
    /// Hash of the CSR row-pointer array.
    pub row_structure: u64,
    /// Hash of the CSR column-index array.
    pub col_structure: u64,
    /// Hash of the non-zero value bits.
    pub values: u64,
    /// Mutation epoch of the handle the matrix was served under. A
    /// freshly registered (or anonymous) matrix is epoch 0; every
    /// applied delta batch bumps it. The epoch participates in
    /// equality, hashing, and [`digest`](Fingerprint::digest), so a
    /// plan composed before an update can never satisfy a lookup made
    /// after it — even if an update cycle returns the matrix to
    /// byte-identical content.
    pub epoch: u64,
}

impl Fingerprint {
    /// Fingerprint a CSR matrix (one pass over `row_ptr`, `col_ind`,
    /// `values`; no allocation).
    pub fn of_csr<T: Scalar>(csr: &CsrMatrix<T>) -> Self {
        Fingerprint {
            rows: csr.rows(),
            cols: csr.cols(),
            nnz: csr.nnz(),
            row_structure: hash_array(csr.row_ptr(), |p| p as u64),
            col_structure: hash_array(csr.col_ind(), u64::from),
            values: hash_array(csr.values(), T::bits),
            epoch: 0,
        }
    }

    /// The same fingerprint pinned to a different mutation epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Fold the whole fingerprint into one 64-bit digest — the stable
    /// per-matrix key the engine hands planners for failure memory
    /// (circuit breakers). Mixes every field, so matrices differing in
    /// shape, structure, or values get distinct digests (up to hash
    /// collisions).
    pub fn digest(&self) -> u64 {
        let mut h = WordHasher::new();
        h.write(self.rows as u64);
        h.write(self.cols as u64);
        h.write(self.nnz as u64);
        h.write(self.row_structure);
        h.write(self.col_structure);
        h.write(self.values);
        h.write(self.epoch);
        h.finish()
    }

    /// The shard a fingerprint maps to, for `n` shards.
    pub(crate) fn shard(&self, n: usize) -> usize {
        debug_assert!(n >= 1);
        // The structure hashes are already avalanched; fold them so
        // matrices differing in either field spread across shards.
        ((self.row_structure ^ self.col_structure.rotate_left(32) ^ self.values) % n as u64)
            as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::{gen::uniform_random, CooMatrix, Pcg32};

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&uniform_random(64, 48, 400, &mut rng))
    }

    #[test]
    fn identical_matrices_share_a_fingerprint() {
        assert_eq!(
            Fingerprint::of_csr(&matrix(1)),
            Fingerprint::of_csr(&matrix(1))
        );
    }

    #[test]
    fn different_structure_diverges() {
        assert_ne!(
            Fingerprint::of_csr(&matrix(1)),
            Fingerprint::of_csr(&matrix(2))
        );
    }

    #[test]
    fn same_structure_different_values_diverges() {
        let a = matrix(3);
        let triplets: Vec<(usize, usize, f64)> =
            a.iter().map(|(r, c, v)| (r, c, v + 1.0)).collect();
        let b =
            CsrMatrix::from_coo(&CooMatrix::from_triplets(a.rows(), a.cols(), triplets).unwrap());
        let fa = Fingerprint::of_csr(&a);
        let fb = Fingerprint::of_csr(&b);
        assert_eq!(fa.row_structure, fb.row_structure);
        assert_eq!(fa.col_structure, fb.col_structure);
        assert_ne!(fa.values, fb.values, "value hash must bind the plan");
        assert_ne!(fa, fb);
    }

    #[test]
    fn empty_and_degenerate_shapes_are_distinct() {
        let shapes = [(0usize, 0usize), (0, 5), (5, 0), (5, 5)];
        let fps: Vec<Fingerprint> = shapes
            .iter()
            .map(|&(r, c)| Fingerprint::of_csr(&CsrMatrix::<f32>::empty(r, c)))
            .collect();
        for i in 0..fps.len() {
            for j in 0..fps.len() {
                assert_eq!(i == j, fps[i] == fps[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn epoch_separates_otherwise_identical_matrices() {
        let base = Fingerprint::of_csr(&matrix(9));
        assert_eq!(base.epoch, 0, "fresh fingerprints start at epoch 0");
        let bumped = base.with_epoch(3);
        assert_ne!(base, bumped, "epoch must participate in key equality");
        assert_ne!(
            base.digest(),
            bumped.digest(),
            "stale-epoch records must land under distinct digests"
        );
        assert_eq!(bumped.with_epoch(0), base);
    }

    /// Array lengths under test: two full rounds of the lanes at two
    /// items per word, plus one, so every tail length is covered.
    const MAX_LEN: usize = 2 * LANES * 2 + 1;

    /// Distinct, non-zero words for an array of length `len`, small
    /// enough that every conversion below is exact.
    fn words(len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| i * 977 + 3).collect()
    }

    /// The hash of `words` under each array's own word conversion: row
    /// pointers (`usize`), column indices (`u32`), values (`f32` bits).
    fn array_hashes(words: &[u64]) -> [u64; 3] {
        let ptrs: Vec<usize> = words.iter().map(|&w| w as usize).collect();
        let cols: Vec<lf_sparse::Index> = words.iter().map(|&w| w as lf_sparse::Index).collect();
        let vals: Vec<f32> = words.iter().map(|&w| w as f32).collect();
        [
            hash_array(&ptrs, |p| p as u64),
            hash_array(&cols, u64::from),
            hash_array(&vals, f32::bits),
        ]
    }

    #[test]
    fn any_single_element_change_moves_the_array_hash() {
        for len in 0..=MAX_LEN {
            let base = words(len);
            let want = array_hashes(&base);
            for i in 0..len {
                for new in [0, 1, base[i] + 1, 1 << 20] {
                    if new == base[i] {
                        continue;
                    }
                    let mut changed = base.clone();
                    changed[i] = new;
                    let got = array_hashes(&changed);
                    for a in 0..3 {
                        assert_ne!(got[a], want[a], "array {a}, len {len}, slot {i} -> {new}");
                    }
                }
            }
        }
    }

    #[test]
    fn swapping_adjacent_elements_moves_the_array_hash() {
        for len in 2..=MAX_LEN {
            let base = words(len);
            let want = array_hashes(&base);
            for i in 0..len - 1 {
                let mut swapped = base.clone();
                swapped.swap(i, i + 1);
                let got = array_hashes(&swapped);
                for a in 0..3 {
                    assert_ne!(got[a], want[a], "array {a}, len {len}, swap {i}");
                }
            }
        }
    }

    #[test]
    fn trailing_zeros_are_not_absorbed() {
        for len in 0..=MAX_LEN {
            let mut seen = std::collections::HashSet::new();
            for zeros in 0..=MAX_LEN {
                let mut padded = words(len);
                padded.resize(len + zeros, 0);
                for (a, h) in array_hashes(&padded).into_iter().enumerate() {
                    assert!(seen.insert((a, h)), "array {a}, len {len} + {zeros} zeros");
                }
            }
        }
    }

    #[test]
    fn sharding_spreads_and_stays_in_range() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let fp = Fingerprint::of_csr(&matrix(seed));
            let s = fp.shard(8);
            assert!(s < 8);
            seen.insert(s);
        }
        assert!(
            seen.len() >= 4,
            "64 matrices landed on {} shards",
            seen.len()
        );
    }
}
