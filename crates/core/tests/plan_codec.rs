//! Serialization tier for the plan codec (DESIGN.md §13).
//!
//! Two properties carry the whole disk-tier argument:
//!
//! 1. **Round-trip fidelity** — `decode(encode(plan))` must execute
//!    **bitwise identically** to the original plan, across every fuzzer
//!    structure class, both kernel flavors (CELL and fixed CSR), and
//!    both tuned and default execution tiles. Anything less and a
//!    warmed restart could serve different bits than a cold one.
//! 2. **Decoder hostility** — the decoder takes bytes from disk, i.e.
//!    from *anyone*. Truncations, bit flips, version drift, and
//!    thousands of seeded random mutations must all produce a typed
//!    [`CodecError`] — never a panic, never an `Ok` on tampered bytes.

use lf_cell::{build_cell, CellConfig};
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES};
use lf_sparse::{DenseMatrix, Pcg32};
use liteform_core::codec::CodecError;
use liteform_core::{decode_plan, encode_plan, PreparedPlan, PreprocessProfile};

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A reference plan to corrupt: small but structurally non-trivial
/// (multiple buckets, folded rows possible).
fn sample_record() -> Vec<u8> {
    let case = fuzz_case::<f64>(0);
    assert!(!case.malformed);
    let config = CellConfig::default();
    let cell = build_cell(&case.csr, &config).unwrap();
    let plan = PreparedPlan::from_cell(config, cell, PreprocessProfile::default())
        .with_tuned_j(case.j.max(1));
    encode_plan(&plan).unwrap()
}

#[test]
fn epoch_round_trips_and_version_one_records_are_refused() {
    let case = fuzz_case::<f64>(0);
    let config = CellConfig::default();
    let cell = build_cell(&case.csr, &config).unwrap();
    let plan = PreparedPlan::from_cell(config, cell, PreprocessProfile::default())
        .with_tuned_j(case.j.max(1))
        .with_epoch(41);
    let bytes = encode_plan(&plan).unwrap();
    let back = decode_plan::<f64>(&bytes).unwrap();
    assert_eq!(back.epoch, 41, "epoch must survive the round trip");

    // A record stamped with the pre-epoch version must be refused, not
    // parsed as if its payload had today's layout.
    let mut v1 = bytes;
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert!(
        matches!(
            decode_plan::<f64>(&v1),
            Err(CodecError::UnsupportedVersion(1))
        ),
        "version-1 records must be rejected as unsupported"
    );
}

#[test]
fn round_trip_is_bitwise_identical_across_all_classes_kernels_and_tiles() {
    let mut classes_seen = std::collections::HashSet::new();
    let mut checked = 0usize;
    // 3 seeds per class covers every class with distinct draws.
    for seed in 0..(3 * FUZZ_CLASSES) {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            // The hostile class is rejected at ingress validation —
            // a malformed matrix never becomes a plan, so it never
            // reaches the codec (asserted separately below).
            continue;
        }
        classes_seen.insert(case.label);
        let config = CellConfig::default();
        let cell = build_cell(&case.csr, &config).unwrap();
        // {CELL, CSR} × {default tile, tuned tile}.
        let plans: Vec<(&str, PreparedPlan<f64>)> = vec![
            (
                "cell/default",
                PreparedPlan::from_cell(config.clone(), cell.clone(), PreprocessProfile::default()),
            ),
            (
                "cell/tuned",
                PreparedPlan::from_cell(config, cell, PreprocessProfile::default())
                    .with_tuned_j(case.j.max(1)),
            ),
            (
                "csr/default",
                PreparedPlan::from_csr(case.csr.clone(), PreprocessProfile::default()),
            ),
            (
                "csr/tuned",
                PreparedPlan::from_csr(case.csr.clone(), PreprocessProfile::default())
                    .with_tuned_j(case.j.max(1)),
            ),
        ];
        let mut rng = Pcg32::seed_from_u64(0xC0DE ^ seed);
        let b = DenseMatrix::random(case.csr.cols(), case.j, &mut rng);
        for (name, plan) in plans {
            let encoded = encode_plan(&plan).unwrap_or_else(|e| {
                panic!("seed {seed} ({}) {name}: encode failed: {e}", case.label)
            });
            let decoded: PreparedPlan<f64> = decode_plan(&encoded).unwrap_or_else(|e| {
                panic!("seed {seed} ({}) {name}: decode failed: {e}", case.label)
            });
            // The tuned execution tile must survive verbatim — a decoded
            // plan re-planned against per-process calibration would not
            // be the plan that was persisted.
            assert_eq!(
                decoded.tile_params(),
                plan.tile_params(),
                "seed {seed} ({}) {name}: tile drifted",
                case.label
            );
            assert_eq!(
                decoded.format_bytes(),
                plan.format_bytes(),
                "seed {seed} ({}) {name}: byte charge drifted",
                case.label
            );
            let want = plan.run(&b).unwrap();
            let got = decoded.run(&b).unwrap();
            assert_eq!(
                bits(&got),
                bits(&want),
                "seed {seed} ({}) {name}: decoded plan diverged bitwise",
                case.label
            );
        }
        checked += 1;
    }
    assert!(
        classes_seen.len() >= (FUZZ_CLASSES as usize) - 2,
        "structure coverage too thin: {classes_seen:?}"
    );
    assert!(checked >= 24, "only {checked} well-formed cases");
}

#[test]
fn f32_plans_round_trip_and_reject_elem_size_confusion() {
    let case = fuzz_case::<f32>(1);
    assert!(!case.malformed);
    let plan = PreparedPlan::from_csr(case.csr.clone(), PreprocessProfile::default())
        .with_tuned_j(case.j.max(1));
    let encoded = encode_plan(&plan).unwrap();
    let decoded: PreparedPlan<f32> = decode_plan(&encoded).unwrap();
    let mut rng = Pcg32::seed_from_u64(7);
    let b = DenseMatrix::<f32>::random(case.csr.cols(), case.j, &mut rng);
    let want = plan.run(&b).unwrap();
    let got = decoded.run(&b).unwrap();
    let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
    let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(wb, gb, "f32 round trip must be bit-exact");
    // An f32 record must not decode as f64 (and vice versa): the value
    // encoding is element-size dependent.
    let confused = decode_plan::<f64>(&encoded);
    assert!(
        matches!(confused, Err(CodecError::WrongElemSize { .. })),
        "{confused:?}"
    );
}

#[test]
fn malformed_class_is_stopped_before_the_codec_exists() {
    // The codec never sees the hostile class: strict CSR validation —
    // the ingestion gate every plan source runs behind — rejects it
    // first. This pins the layering: codec trust starts at "was a
    // valid plan once".
    let mut seen = 0;
    for seed in 0..(6 * FUZZ_CLASSES) {
        let case = fuzz_case::<f64>(seed);
        if !case.malformed {
            continue;
        }
        seen += 1;
        assert!(
            case.csr.validate_finite().is_err(),
            "seed {seed} ({}): malformed case passed validation",
            case.label
        );
    }
    assert!(seen >= 4, "fuzzer yielded only {seen} malformed cases");
}

#[test]
fn degraded_plans_are_refused_by_the_encoder() {
    let case = fuzz_case::<f64>(2);
    assert!(!case.malformed);
    let plan = PreparedPlan::from_csr(case.csr, PreprocessProfile::default()).mark_degraded();
    assert!(matches!(encode_plan(&plan), Err(CodecError::DegradedPlan)));
}

#[test]
fn verdicts_are_refused_by_the_encoder_and_reconstruction() {
    let case = fuzz_case::<f64>(2);
    assert!(!case.malformed);
    let verdict = PreparedPlan::csr_verdict(&case.csr, PreprocessProfile::default());
    assert!(matches!(encode_plan(&verdict), Err(CodecError::NoOperand)));
    assert_eq!(verdict.reconstruct_csr(), Err(CodecError::NoOperand));
    let dropped = PreparedPlan::from_csr(case.csr, PreprocessProfile::default()).into_verdict();
    assert!(matches!(encode_plan(&dropped), Err(CodecError::NoOperand)));
}

#[test]
fn every_truncation_is_a_typed_error() {
    let record = sample_record();
    // Every prefix, including the empty one, must fail typed — the
    // trailing CRC cannot survive any truncation.
    for cut in 0..record.len() {
        let r = decode_plan::<f64>(&record[..cut]);
        assert!(r.is_err(), "truncation to {cut} bytes decoded Ok");
    }
}

#[test]
fn single_byte_flips_are_rejected_everywhere() {
    let record = sample_record();
    // Header flips get the specific diagnosis; everything else is at
    // minimum a checksum mismatch (the CRC covers every byte before it,
    // and flipping the stored CRC breaks the comparison itself).
    for pos in 0..record.len() {
        let mut bad = record.clone();
        bad[pos] ^= 0x40;
        let r = decode_plan::<f64>(&bad);
        assert!(r.is_err(), "flip at byte {pos} decoded Ok");
    }
    // Specific diagnoses for the header fields.
    let mut bad_magic = record.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        decode_plan::<f64>(&bad_magic),
        Err(CodecError::BadMagic)
    ));
    let mut future = record.clone();
    future[4] = 0xEE; // version low byte
                      // Recompute the trailer so only the version is wrong.
    let crc_at = future.len() - 4;
    let crc = liteform_core::codec::crc32(&future[..crc_at]);
    future[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode_plan::<f64>(&future),
        Err(CodecError::UnsupportedVersion(_))
    ));
    // Trailing garbage after a perfect record is also not a record.
    let mut padded = record.clone();
    padded.push(0);
    assert!(decode_plan::<f64>(&padded).is_err());
}

#[test]
fn two_thousand_seeded_mutations_never_panic_never_decode() {
    let record = sample_record();
    let mut rng = Pcg32::seed_from_u64(0xFA112);
    let mut rejected = 0u32;
    for _ in 0..2000 {
        let mut bad = record.clone();
        match rng.next_u32() % 4 {
            0 => {
                // Flip 1-4 random bytes.
                for _ in 0..(1 + rng.next_u32() % 4) {
                    let pos = rng.next_u32() as usize % bad.len();
                    let mask = (1 + rng.next_u32() % 255) as u8;
                    bad[pos] ^= mask;
                }
            }
            1 => {
                // Truncate to a random prefix.
                bad.truncate(rng.next_u32() as usize % bad.len());
            }
            2 => {
                // Splice a random chunk out of the middle.
                let start = rng.next_u32() as usize % bad.len();
                let len = 1 + rng.next_u32() as usize % (bad.len() - start);
                bad.drain(start..start + len);
            }
            _ => {
                // Append random garbage.
                for _ in 0..(1 + rng.next_u32() % 16) {
                    bad.push(rng.next_u32() as u8);
                }
            }
        }
        if bad == record {
            continue;
        }
        // The call must return (no panic) and must refuse (no Ok).
        let r = std::panic::catch_unwind(|| decode_plan::<f64>(&bad));
        let r = r.expect("decoder panicked on mutated bytes");
        assert!(r.is_err(), "mutated record decoded Ok");
        rejected += 1;
    }
    assert!(rejected >= 1990, "only {rejected} mutations exercised");
}
