//! Mutation tier: dynamic matrices behind [`MatrixHandle`] (DESIGN.md
//! §15).
//!
//! The contract under test: **a serve after an update is never stale.**
//! Every result served through a handle agrees with the handle's
//! *current* payload; cached plans either migrate to the new epoch
//! (bitwise-identical to a fresh compose) or are retired, and the
//! outcome ledger stays exact through arbitrary interleavings of
//! serves and updates.
//!
//! The mid-update kill scenarios (torn commit, aborted sweep, stale
//! disk record surviving a crash) are driven by seeded
//! `lf_check::chaos` injection and compile only with
//! `--features chaos`; the rest of the suite runs in tier 1. The chaos
//! plan is process-global, so every test here serializes on one gate.

use lf_serve::{
    Fingerprint, FixedCellPlanner, MatrixHandle, Placement, PlanStore, Planner, ServeConfig,
    ServeEngine, StoreConfig,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate, Pcg32};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

/// Serializes every test in this binary: the chaos plan (and nothing
/// else) is process-global.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn matrix(seed: u64) -> CsrMatrix<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
}

fn engine(config: ServeConfig) -> ServeEngine<f64, FixedCellPlanner> {
    ServeEngine::new(FixedCellPlanner::tuned(4), config)
}

fn assert_ledger_exact(e: &ServeEngine<f64, FixedCellPlanner>) {
    let s = e.stats();
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed,
        "ledger identity: {s:?}"
    );
}

/// Pattern-preserving value changes on the first `n` stored entries,
/// salted so consecutive batches produce different value hashes.
fn value_updates(csr: &CsrMatrix<f64>, n: usize, salt: u64) -> Vec<EdgeUpdate<f64>> {
    csr.iter()
        .take(n)
        .map(|(row, col, v)| EdgeUpdate::SetValue {
            row,
            col,
            value: v + 1.0 + salt as f64,
        })
        .collect()
}

/// One structural batch: delete the matrix's first stored entry and
/// insert into a column row 0 doesn't populate.
fn structural_updates(csr: &CsrMatrix<f64>) -> Vec<EdgeUpdate<f64>> {
    let (del_row, del_col, _) = csr.iter().next().expect("non-empty matrix");
    let row0: HashSet<usize> = csr
        .iter()
        .filter(|&(r, _, _)| r == 0)
        .map(|(_, c, _)| c)
        .collect();
    let free = (0..csr.cols())
        .find(|c| !(row0.contains(c) || del_row == 0 && *c == del_col))
        .expect("row 0 has a free column");
    vec![
        EdgeUpdate::Delete {
            row: del_row,
            col: del_col,
        },
        EdgeUpdate::Insert {
            row: 0,
            col: free,
            value: 2.5,
        },
    ]
}

#[test]
fn post_update_serve_is_never_stale_and_migrated_plans_are_bitwise_fresh() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("lf-updates-{}-fresh", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = engine(ServeConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let mut rng = Pcg32::seed_from_u64(0x11FE);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let h = MatrixHandle::new(matrix(0x600)).unwrap();

    let cold = e.serve_handle(&h, &b).unwrap();
    assert!(!cold.hit);
    assert_eq!(h.epoch(), 0);

    // Five sequential batches — value-only and structural — each
    // followed by a serve that must answer the *new* payload.
    for round in 1..=5u64 {
        let snapshot = h.csr();
        let updates = if round % 2 == 0 {
            structural_updates(&snapshot)
        } else {
            value_updates(&snapshot, 8, round)
        };
        let out = e.apply_updates(&h, &updates).unwrap();
        assert_eq!(out.epoch, round, "epoch bumps once per batch");
        assert_eq!(out.fingerprint, h.fingerprint());
        // 128 rows sit far below the churn crossover (a rebuild pays a
        // full pool dispatch): the incremental path must be chosen and
        // the cached plan carried over.
        assert!(!out.rebuild, "round {round}: tiny matrix must migrate");
        assert_eq!(out.migrated, 1, "round {round}: cached plan migrates");
        assert!(out.swept, "round {round}: both tiers confirmed clean");
        assert!(h.retired().is_empty(), "round {round}: nothing pending");

        let want = h.csr().spmm_reference(&b).unwrap();
        let served = e.serve_handle(&h, &b).unwrap();
        assert!(
            served.hit,
            "round {round}: migrated plan must hit, not recompose"
        );
        assert!(served.compose.is_none());
        assert!(
            served.result.approx_eq(&want, 1e-9),
            "round {round}: served result disagrees with the reference"
        );
        // Migration is bitwise: the migrated CELL equals a from-scratch
        // compose of the updated matrix. (The served products repeat only
        // to rounding — multi-partition buckets flush through atomics.)
        assert_eq!(e.snapshot().unwrap(), 1, "round {round}: one live plan");
        let store: PlanStore<f64> = PlanStore::open(StoreConfig {
            dir: dir.clone(),
            disk_budget_bytes: 0,
            placement: Placement::CostAware,
        })
        .unwrap();
        let (migrated, _) = store
            .get(&h.fingerprint(), 8)
            .unwrap()
            .expect("the snapshot holds the migrated plan");
        let fresh = Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), &h.csr(), 8).unwrap();
        assert!(migrated.cell().is_some(), "round {round}: a CELL plan");
        assert_eq!(
            migrated.cell(),
            fresh.cell(),
            "round {round}: migrated plan diverged from fresh compose"
        );
    }
    let s = e.stats();
    assert!(s.stale_evicted >= 5, "every retired epoch swept: {s:?}");
    assert_ledger_exact(&e);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_update_batch_leaves_handle_and_cache_untouched() {
    let _g = locked();
    let e = engine(ServeConfig::default());
    let mut rng = Pcg32::seed_from_u64(0x22FE);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let h = MatrixHandle::new(matrix(0x601)).unwrap();
    assert!(!e.serve_handle(&h, &b).unwrap().hit);
    let fp_before = h.fingerprint();

    // Every hostile shape must be refused atomically: out-of-range
    // coordinates, non-finite values, conflicts against the current
    // pattern, and duplicate targets within one batch.
    let (er, ec, _) = h.csr().iter().next().unwrap();
    let hostile: Vec<Vec<EdgeUpdate<f64>>> = vec![
        vec![EdgeUpdate::Delete { row: 999, col: 0 }],
        vec![EdgeUpdate::SetValue {
            row: er,
            col: ec,
            value: f64::NAN,
        }],
        vec![EdgeUpdate::Insert {
            row: er,
            col: ec,
            value: 1.0,
        }],
        vec![
            EdgeUpdate::SetValue {
                row: er,
                col: ec,
                value: 1.0,
            },
            EdgeUpdate::SetValue {
                row: er,
                col: ec,
                value: 2.0,
            },
        ],
    ];
    for (i, batch) in hostile.iter().enumerate() {
        let err = e.apply_updates(&h, batch).expect_err("hostile batch");
        assert!(err.is_rejection(), "batch {i}: typed rejection, got {err}");
    }
    assert_eq!(h.epoch(), 0, "rejected batches must not bump the epoch");
    assert_eq!(h.fingerprint(), fp_before);

    let again = e.serve_handle(&h, &b).unwrap();
    assert!(again.hit, "cached plan survives rejected updates");
    let want = h.csr().spmm_reference(&b).unwrap();
    assert!(again.result.approx_eq(&want, 1e-9));
    let s = e.stats();
    assert_eq!(s.stale_evicted, 0, "{s:?}");
    assert_ledger_exact(&e);
}

#[test]
fn concurrent_updaters_serialize_while_readers_see_consistent_generations() {
    let _g = locked();
    let base = matrix(0x701);
    let h = MatrixHandle::new(base.clone()).unwrap();
    // Thread `side` edits only rows congruent to `side` mod 2, so the two
    // updaters' batches commute; batch `i` rewrites every entry of one
    // such row to a value naming the batch.
    let batches = |side: usize| -> Vec<Vec<EdgeUpdate<f64>>> {
        (0..100)
            .map(|i| {
                let row = (2 * i + side) % base.rows();
                base.row_cols(row)
                    .iter()
                    .map(|&c| EdgeUpdate::SetValue {
                        row,
                        col: c as usize,
                        value: (1000 * side + i + 1) as f64,
                    })
                    .collect()
            })
            .collect()
    };
    let sides = [batches(0), batches(1)];
    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    let snapshots = std::thread::scope(|s| {
        let writers: Vec<_> = sides
            .iter()
            .map(|side| {
                let (h, start) = (h.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for batch in side {
                        h.apply_updates(batch).unwrap();
                    }
                })
            })
            .collect();
        let reader = s.spawn(|| {
            start.wait();
            let mut seen = 0usize;
            loop {
                let finished = done.load(Ordering::Relaxed);
                let (fp, csr) = h.current();
                assert_eq!(
                    Fingerprint::of_csr(&csr).with_epoch(fp.epoch),
                    fp,
                    "snapshot at epoch {} pairs a payload with another key",
                    fp.epoch
                );
                seen += 1;
                if finished {
                    return seen;
                }
            }
        });
        // Stop the reader before surfacing a writer's panic, so a failed
        // writer fails the test instead of hanging it.
        let written: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Relaxed);
        let seen = reader.join().unwrap();
        for w in written {
            w.unwrap();
        }
        seen
    });
    assert!(snapshots > 0);
    assert_eq!(h.epoch(), 200, "every batch commits exactly once");
    let mut want = base;
    for batch in sides.iter().flatten() {
        want = want.apply_updates(batch).unwrap();
    }
    let got = h.csr();
    assert_eq!(got.row_ptr(), want.row_ptr());
    assert_eq!(got.col_ind(), want.col_ind());
    let bits = |m: &CsrMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got),
        bits(&want),
        "final payload is both batch sets applied"
    );
    assert_eq!(h.fingerprint(), Fingerprint::of_csr(&want).with_epoch(200));
    assert_eq!(h.retired().len(), 200, "every retired generation is listed");
}

#[test]
fn update_sweeps_both_tiers_and_restart_serves_only_fresh_bytes() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("lf-updates-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let mut rng = Pcg32::seed_from_u64(0x33FE);
    let b = DenseMatrix::random(128, 8, &mut rng);

    {
        let e = engine(config.clone());
        let h = MatrixHandle::new(matrix(0x602)).unwrap();
        e.serve_handle(&h, &b).unwrap();
        assert_eq!(e.snapshot().unwrap(), 1, "epoch-0 plan lands on disk");
        assert!(e.stats().store_bytes > 0);

        let out = e.apply_updates(&h, &structural_updates(&h.csr())).unwrap();
        assert!(out.swept);
        let s = e.stats();
        // One RAM entry and one disk record retired.
        assert!(s.stale_evicted >= 2, "{s:?}");
        assert_eq!(s.store_bytes, 0, "stale disk record must be deleted");

        let want = h.csr().spmm_reference(&b).unwrap();
        let served = e.serve_handle(&h, &b).unwrap();
        assert!(served.result.approx_eq(&want, 1e-9));
        assert_ledger_exact(&e);
    } // process "dies" with the handle

    // Restart: nothing stale to warm, and re-registering the updated
    // matrix serves right bytes from a fresh compose.
    let e = engine(config);
    let s = e.stats();
    assert_eq!(
        s.warm_loaded, 0,
        "no stale record survives the sweep: {s:?}"
    );
    assert_eq!(s.warm_rejected, 0, "{s:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Mid-update kill scenarios (chaos feature): a seeded fault tears the
// update at each boundary; the handle and both cache tiers must stay
// on exactly one epoch, and a restart must never serve stale bytes.
// ---------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod mid_update_kill {
    use super::*;
    use lf_check::chaos::{self, ChaosPlan, ChaosSite};
    use liteform_core::LfError;

    fn always(site: ChaosSite) -> ChaosPlan {
        ChaosPlan::disabled(0x5EED_5151).with_rate(site, 1000)
    }

    #[test]
    fn torn_update_leaves_the_old_epoch_fully_intact() {
        let _g = locked();
        let e = engine(ServeConfig::default());
        let mut rng = Pcg32::seed_from_u64(0x44FE);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let h = MatrixHandle::new(matrix(0x603)).unwrap();
        assert!(!e.serve_handle(&h, &b).unwrap().hit);

        chaos::install(always(ChaosSite::UpdateTorn));
        let err = e
            .apply_updates(&h, &structural_updates(&h.csr()))
            .expect_err("torn update must surface");
        chaos::reset();
        assert!(matches!(err, LfError::ResourceExhausted { .. }), "{err}");

        // The kill hit between validation and commit: epoch, payload,
        // retired list, and the cached plan are all exactly pre-update.
        assert_eq!(h.epoch(), 0);
        assert!(h.retired().is_empty());
        let again = e.serve_handle(&h, &b).unwrap();
        assert!(again.hit, "old-epoch plan still serves");
        let want = h.csr().spmm_reference(&b).unwrap();
        assert!(
            again.result.approx_eq(&want, 1e-9),
            "torn update changed served bytes"
        );
        let s = e.stats();
        assert_eq!(s.stale_evicted, 0, "nothing was retired: {s:?}");
        assert_ledger_exact(&e);
    }

    #[test]
    fn aborted_sweep_keeps_the_retired_list_and_retries_clean() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("lf-updates-abort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = engine(ServeConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let mut rng = Pcg32::seed_from_u64(0x55FE);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let h = MatrixHandle::new(matrix(0x604)).unwrap();
        e.serve_handle(&h, &b).unwrap();
        assert_eq!(e.snapshot().unwrap(), 1);

        chaos::install(always(ChaosSite::EpochSweepAbort));
        let out = e.apply_updates(&h, &value_updates(&h.csr(), 6, 1)).unwrap();
        chaos::reset();
        assert!(!out.swept, "aborted sweep must report unclean");
        assert_eq!(h.retired().len(), 1, "fingerprint stays pending");
        // Stale entries are unreachable meanwhile: the serve answers the
        // new epoch via the migrated plan.
        let want = h.csr().spmm_reference(&b).unwrap();
        let served = e.serve_handle(&h, &b).unwrap();
        assert!(served.hit && served.result.approx_eq(&want, 1e-9));

        // The retry reclaims both tiers and clears the pending list.
        assert!(e.sweep_stale(&h), "retry must confirm clean");
        assert!(h.retired().is_empty());
        let s = e.stats();
        assert!(s.stale_evicted >= 2, "RAM entry + disk record: {s:?}");
        assert_eq!(s.store_bytes, 0, "{s:?}");
        assert_ledger_exact(&e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_disk_record_after_a_kill_never_serves_wrong_bytes() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("lf-updates-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let mut rng = Pcg32::seed_from_u64(0x66FE);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let updated = {
            let e = engine(config.clone());
            let h = MatrixHandle::new(matrix(0x605)).unwrap();
            e.serve_handle(&h, &b).unwrap();
            assert_eq!(e.snapshot().unwrap(), 1);

            // The kill lands between the RAM and disk halves of the
            // sweep: RAM is clean, the stale record survives on disk,
            // and the handle still owes a sweep when the process dies.
            chaos::install(always(ChaosSite::StaleDiskRecord));
            let out = e.apply_updates(&h, &structural_updates(&h.csr())).unwrap();
            chaos::reset();
            assert!(!out.swept);
            assert!(!h.retired().is_empty(), "sweep debt survives to the kill");
            assert!(e.stats().store_bytes > 0, "stale record still on disk");
            h.csr()
        }; // "kill" with the sweep pending

        // Restart over the same directory. The leftover record is
        // self-consistent (it answers the *old* matrix content, keyed by
        // the old content fingerprint), so it may warm — but it can
        // never satisfy a lookup for the updated matrix.
        let e = engine(config);
        let s = e.stats();
        assert_eq!(s.warm_rejected, 0, "{s:?}");
        let h = MatrixHandle::new(updated.as_ref().clone()).unwrap();
        let want = h.csr().spmm_reference(&b).unwrap();
        let served = e.serve_handle(&h, &b).unwrap();
        assert!(
            !served.hit,
            "updated matrix must recompose, not reuse the stale record"
        );
        assert!(
            served.result.approx_eq(&want, 1e-9),
            "restart served wrong bytes"
        );
        assert_ledger_exact(&e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
