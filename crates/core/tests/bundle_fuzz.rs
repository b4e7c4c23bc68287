//! Mutation fuzz of the model-bundle decoder.
//!
//! 2,000 seeded mutations of the checked-in bundle — byte flips,
//! truncations, deep-nesting splices and rewritten feature/class
//! indices — each decoded with `serde_json::from_str::<ModelBundle>`.
//! Every case must return `Ok` or `Err`: no panic and no stack overflow
//! (the splices nest far past the reader's depth bound). Every `Ok`
//! goes through [`ModelBundle::validate`], the check `ModelBundle::load`
//! applies, and every bundle that passes must predict without
//! panicking.
//!
//! Release-only: 2,000 decodes of the 1 MB bundle take minutes in a
//! debug build. `scripts/verify.sh --stress` runs it.
#![cfg(not(debug_assertions))]

use lf_sparse::{FormatFeatures, PartitionFeatures, Pcg32};
use liteform_core::ModelBundle;
use std::panic::{catch_unwind, AssertUnwindSafe};

const BUNDLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/liteform-models.json"
);

/// Bytes a flip writes: JSON structure, number syntax and literal
/// letters, so most flips reach the decoder's type and syntax checks.
const FLIP_BYTES: &[u8] = b"0123456789-+.eE\"{}[]:, \\/nultrfasx";

fn below(rng: &mut Pcg32, n: usize) -> usize {
    rng.next_u32() as usize % n
}

fn mutate(text: &[u8], rng: &mut Pcg32) -> Vec<u8> {
    let mut bad = text.to_vec();
    match rng.next_u32() % 4 {
        0 => {
            // Overwrite 1-4 random bytes.
            for _ in 0..1 + rng.next_u32() % 4 {
                let pos = below(rng, bad.len());
                bad[pos] = FLIP_BYTES[below(rng, FLIP_BYTES.len())];
            }
        }
        1 => bad.truncate(below(rng, bad.len())),
        2 => {
            // Splice in nesting far deeper than the reader accepts.
            let opener: &[u8] = if rng.next_u32().is_multiple_of(2) {
                b"["
            } else {
                b"{\"a\":"
            };
            let depth = 100 + below(rng, 20_000);
            let pos = below(rng, bad.len() + 1);
            bad.splice(pos..pos, opener.repeat(depth));
        }
        _ => {
            // Rewrite one feature or class index, in or out of range.
            let key: &[u8] = if rng.next_u32().is_multiple_of(2) {
                b"\"feature\":"
            } else {
                b"\"class\":"
            };
            let starts: Vec<usize> = bad
                .windows(key.len())
                .enumerate()
                .filter(|(_, w)| *w == key)
                .map(|(i, _)| i + key.len())
                .collect();
            let at = starts[below(rng, starts.len())];
            let end = at + bad[at..].iter().take_while(|b| b.is_ascii_digit()).count();
            let value: u64 = [0, 1, 5, 6, 7, 8, 64, 1 << 40][below(rng, 8)];
            bad.splice(at..end, value.to_string().into_bytes());
        }
    }
    bad
}

/// Feature vectors that reach many leaves: wide magnitudes and NaN.
fn probes(rng: &mut Pcg32) -> Vec<[f64; 8]> {
    (0..8)
        .map(|k| {
            std::array::from_fn(|_| match k {
                0 => f64::NAN,
                _ => rng.f64_in(-1.0, 1.0) * 10f64.powi(below(rng, 8) as i32),
            })
        })
        .collect()
}

#[test]
fn two_thousand_mutated_bundles_decode_or_refuse_without_panicking() {
    let text = std::fs::read_to_string(BUNDLE).expect("bundle is checked in");
    assert!(text.is_ascii(), "mutations assume an ASCII bundle");
    let mut rng = Pcg32::seed_from_u64(0xB0D1E);
    let (mut refused, mut invalid, mut accepted) = (0u32, 0u32, 0u32);
    for case in 0..2000 {
        let bad = mutate(text.as_bytes(), &mut rng);
        let bad = String::from_utf8(bad).expect("ASCII mutations stay UTF-8");
        let decoded = catch_unwind(|| serde_json::from_str::<ModelBundle>(&bad))
            .unwrap_or_else(|_| panic!("case {case}: decoder panicked"));
        let Ok(bundle) = decoded else {
            refused += 1;
            continue;
        };
        let verdict = catch_unwind(|| bundle.validate())
            .unwrap_or_else(|_| panic!("case {case}: validation panicked"));
        if verdict.is_err() {
            invalid += 1;
            continue;
        }
        accepted += 1;
        let lf = bundle.into_liteform();
        let xs = probes(&mut rng);
        catch_unwind(AssertUnwindSafe(|| {
            for x in &xs {
                lf.selector.predict(&FormatFeatures {
                    rows: x[0],
                    cols: x[1],
                    nnz: x[2],
                    avg_nnz_per_row: x[3],
                    min_nnz_per_row: x[4],
                    max_nnz_per_row: x[5],
                    std_nnz_per_row: x[6],
                });
                lf.predictor.predict(&PartitionFeatures {
                    rows: x[0],
                    cols: x[1],
                    nnz: x[2],
                    avg_density_per_row: x[3],
                    min_density_per_row: x[4],
                    max_density_per_row: x[5],
                    std_density_per_row: x[6],
                    j_product: x[7],
                });
            }
        }))
        .unwrap_or_else(|_| panic!("case {case}: a validated bundle panicked on predict"));
    }
    // Each outcome occurs, so every branch above was exercised.
    assert!(
        refused >= 500 && invalid >= 50 && accepted >= 50,
        "refused {refused}, invalid {invalid}, accepted {accepted}"
    );
}
