//! Mutation fuzz of whole store records through `PlanStore::load`.
//!
//! 2,000 seeded mutations of two v4 records (a CELL plan and a fixed-CSR
//! plan), each written under its record's name and loaded through the
//! side-effect-free `PlanStore::load`: byte flips, truncations, splices
//! and appends, plus flips behind a re-sealed header CRC or a re-sealed
//! blob CRC, so mutated fields reach the key, length, structural and
//! fingerprint checks rather than stopping at a checksum. Every case
//! must return (no panic), and every `Ok` plan must re-fingerprint to
//! its key.
//!
//! Release-only, like the other decoder fuzzes: `scripts/verify.sh
//! --stress` runs it.
#![cfg(not(debug_assertions))]

use lf_serve::{Fingerprint, FixedCellPlanner, Placement, PlanStore, Planner, StoreConfig};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, Pcg32};
use liteform_core::codec::crc32;
use liteform_core::{PreparedPlan, PreprocessProfile};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Header bytes covered by the header CRC, which follows them.
const HEADER_BODY: usize = 86;
/// Bytes before the plan blob.
const RECORD_HEADER: usize = HEADER_BODY + 4;

fn below(rng: &mut Pcg32, n: usize) -> usize {
    rng.next_u32() as usize % n.max(1)
}

/// Flip 1–4 random bytes in `bytes[range]`.
fn flip(rng: &mut Pcg32, bytes: &mut [u8], range: std::ops::Range<usize>) {
    for _ in 0..1 + below(rng, 4) {
        let at = range.start + below(rng, range.len());
        bytes[at] ^= 1 + below(rng, 255) as u8;
    }
}

/// Re-seal the CRC at `bytes[end..end + 4]` over `bytes[start..end]`.
fn reseal(bytes: &mut [u8], start: usize, end: usize) {
    let crc = crc32(&bytes[start..end]);
    bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
}

fn mutate(rng: &mut Pcg32, record: &[u8]) -> Vec<u8> {
    let mut bad = record.to_vec();
    let len = bad.len();
    match below(rng, 6) {
        0 => flip(rng, &mut bad, 0..len),
        1 => bad.truncate(below(rng, len)),
        2 => {
            let start = below(rng, len);
            let n = 1 + below(rng, len - start);
            bad.drain(start..start + n);
        }
        3 => {
            for _ in 0..1 + below(rng, 16) {
                bad.push(rng.next_u32() as u8);
            }
        }
        4 => {
            // Past the version: a rewritten key, cost or blob length.
            flip(rng, &mut bad, 6..HEADER_BODY);
            reseal(&mut bad, 0, HEADER_BODY);
        }
        _ => {
            // Inside the codec payload, behind a valid blob CRC.
            flip(rng, &mut bad, RECORD_HEADER..len - 4);
            reseal(&mut bad, RECORD_HEADER, len - 4);
        }
    }
    bad
}

#[test]
fn two_thousand_record_mutations_never_panic_and_every_ok_re_fingerprints() {
    let dir = std::env::temp_dir().join(format!("lf-store-fuzz-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store: PlanStore<f64> = PlanStore::open(StoreConfig {
        dir: dir.clone(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .unwrap();
    let mut rng = Pcg32::seed_from_u64(0x5707);
    let a = CsrMatrix::<f64>::from_coo(&mixed_regions(64, 64, 600, 4, &mut rng));
    let c = CsrMatrix::<f64>::from_coo(&mixed_regions(48, 40, 300, 2, &mut rng));
    let cell = Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), &a, 8).unwrap();
    assert!(cell.uses_cell());
    let csr = PreparedPlan::from_csr(c.clone(), PreprocessProfile::default()).with_tuned_j(8);
    let mut cases = Vec::new();
    for (m, plan) in [(&a, &cell), (&c, &csr)] {
        let fp = Fingerprint::of_csr(m);
        store.put(&fp, 8, plan, 1_000, 0).unwrap();
        let path = dir.join(format!("p{:016x}-8.lfp", fp.digest()));
        let record = fs::read(&path).unwrap();
        cases.push((fp, path, record));
    }

    let (mut accepted, mut refused, mut deep) = (0u32, 0u32, 0u32);
    for _ in 0..2000 {
        let (fp, path, record) = &cases[below(&mut rng, cases.len())];
        let bad = mutate(&mut rng, record);
        if bad == *record {
            continue;
        }
        fs::write(path, &bad).unwrap();
        let loaded = catch_unwind(AssertUnwindSafe(|| store.load(fp, 8)))
            .expect("load panicked on a mutated record");
        match loaded {
            Ok(Some(plan)) => {
                let refp = Fingerprint::of_csr(&plan.reconstruct_csr().unwrap());
                assert_eq!(refp.with_epoch(fp.epoch), *fp, "an Ok plan re-fingerprints");
                accepted += 1;
            }
            Ok(None) => panic!("an indexed, readable record loaded as a miss"),
            Err(e) => {
                deep += u32::from(e.to_string().contains("stale fingerprint"));
                refused += 1;
            }
        }
    }
    assert!(
        accepted + refused >= 1990,
        "only {} mutations exercised",
        accepted + refused
    );
    assert!(deep > 0, "no mutation reached the fingerprint re-check");
    // Loads have no side effect: both keys are still indexed.
    assert_eq!(store.records(), 2);
    let _ = fs::remove_dir_all(&dir);
}
