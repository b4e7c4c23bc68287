//! Corpus property: incrementally maintained CELL is bitwise identical
//! to a from-scratch rebuild, across every pattern family × partition
//! count × width-cap configuration × seeded update stream.
//!
//! Streams are engineered to hit the hard transitions: rows folding
//! across a cap as inserts push them over, folded rows unfolding as
//! deletes pull them under, rows migrating between power-of-two
//! buckets, and rows deleted down to empty (all fragments dropped).

use lf_cell::{build_cell, update_cell, updated_cell, CellConfig};
use lf_sparse::gen::PatternFamily;
use lf_sparse::update::EdgeUpdate;
use lf_sparse::{CsrMatrix, Index, Pcg32};

/// One update batch: random single-coordinate edits plus, on alternate
/// steps, a row drain (delete-to-empty) or a row bloat (fold crossing).
fn batch(csr: &CsrMatrix<f64>, step: usize, rng: &mut Pcg32) -> Vec<EdgeUpdate<f64>> {
    let (rows, cols) = csr.shape();
    let mut updates: Vec<EdgeUpdate<f64>> = Vec::new();
    let taken = |updates: &[EdgeUpdate<f64>], r: usize, c: usize| {
        updates.iter().any(|u| u.coord() == (r, c))
    };

    match step % 3 {
        // Drain a non-empty row to zero entries.
        1 => {
            for _ in 0..8 {
                let r = rng.usize_in(0, rows);
                if csr.row_len(r) > 0 {
                    updates.extend(csr.row_cols(r).iter().map(|&c| EdgeUpdate::Delete {
                        row: r,
                        col: c as usize,
                    }));
                    break;
                }
            }
        }
        // Bloat one row well past the small caps so it folds (and
        // crosses several power-of-two boundaries when uncapped).
        2 => {
            let r = rng.usize_in(0, rows);
            let have = csr.row_cols(r);
            for c in 0..cols.min(48) {
                if have.binary_search(&(c as Index)).is_err() {
                    updates.push(EdgeUpdate::Insert {
                        row: r,
                        col: c,
                        value: rng.f64_in(0.5, 1.5),
                    });
                }
            }
        }
        _ => {}
    }

    for _ in 0..12 {
        let r = rng.usize_in(0, rows);
        let c = rng.usize_in(0, cols);
        if taken(&updates, r, c) {
            continue;
        }
        let present = csr.row_cols(r).binary_search(&(c as Index)).is_ok();
        updates.push(match (present, rng.bernoulli(0.4)) {
            (true, true) => EdgeUpdate::Delete { row: r, col: c },
            (true, false) => EdgeUpdate::SetValue {
                row: r,
                col: c,
                value: rng.f64_in(-2.0, 2.0),
            },
            (false, _) => EdgeUpdate::Insert {
                row: r,
                col: c,
                value: rng.f64_in(0.5, 1.5),
            },
        });
    }
    updates
}

#[test]
fn incremental_matches_rebuild_across_corpus() {
    let mut seed = 0x11FE_u64;
    for family in PatternFamily::ALL {
        for partitions in [1usize, 2, 3, 5, 8] {
            for caps in [None, Some(vec![4usize]), Some(vec![32usize])] {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut rng = Pcg32::seed_from_u64(seed);
                let coo = family.generate::<f64>(257, 193, 4000, &mut rng);
                let mut csr = CsrMatrix::from_coo(&coo);
                let cfg = CellConfig {
                    num_partitions: partitions,
                    max_widths: caps.clone(),
                    ..CellConfig::default()
                };
                let mut cell = build_cell(&csr, &cfg).unwrap();
                for step in 0..4 {
                    let updates = batch(&csr, step, &mut rng);
                    if updates.is_empty() {
                        continue;
                    }
                    let new_csr = csr.apply_updates(&updates).unwrap();
                    let touched: Vec<(usize, usize)> =
                        updates.iter().map(EdgeUpdate::coord).collect();
                    update_cell(&mut cell, &new_csr, &touched).unwrap();
                    let rebuilt = build_cell(&new_csr, &cfg).unwrap();
                    assert_eq!(
                        cell,
                        rebuilt,
                        "family {} partitions {} caps {:?} step {}: \
                         maintained CELL diverged from rebuild",
                        family.name(),
                        partitions,
                        caps,
                        step
                    );
                    csr = new_csr;
                }
            }
        }
    }
}

#[test]
fn copy_once_successor_matches_rebuild_and_leaves_the_source_alone() {
    // The same sweep through `updated_cell`, the form plan migration
    // uses: each successor equals the rebuild and the in-place update,
    // and the CELL it was built from is unchanged.
    let mut seed = 0x22FE_u64;
    for family in PatternFamily::ALL {
        for partitions in [1usize, 2, 5] {
            for caps in [None, Some(vec![4usize]), Some(vec![32usize])] {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut rng = Pcg32::seed_from_u64(seed);
                let coo = family.generate::<f64>(257, 193, 4000, &mut rng);
                let mut csr = CsrMatrix::from_coo(&coo);
                let cfg = CellConfig {
                    num_partitions: partitions,
                    max_widths: caps.clone(),
                    ..CellConfig::default()
                };
                let mut cell = build_cell(&csr, &cfg).unwrap();
                for step in 0..4 {
                    let updates = batch(&csr, step, &mut rng);
                    let new_csr = csr.apply_updates(&updates).unwrap();
                    let touched: Vec<(usize, usize)> =
                        updates.iter().map(EdgeUpdate::coord).collect();
                    let before = cell.clone();
                    let next = updated_cell(&cell, &new_csr, &touched).unwrap();
                    let what = format!(
                        "family {} partitions {partitions} caps {caps:?} step {step}",
                        family.name()
                    );
                    assert_eq!(cell, before, "{what}: source CELL modified");
                    assert_eq!(next, build_cell(&new_csr, &cfg).unwrap(), "{what}");
                    update_cell(&mut cell, &new_csr, &touched).unwrap();
                    assert_eq!(cell, next, "{what}: in-place and copy-once disagree");
                    csr = new_csr;
                }
            }
        }
    }
}
