//! Fixture corpus for the lint rules, plus the seeded-bug regression
//! tests against the real workspace.
//!
//! Each fixture under `lint_fixtures/` is one known-bad snippet. The
//! tests mount it at a virtual workspace path that puts it in the
//! rule's scope, run the full default rule set, and assert the exact
//! `path:line` the rule fires on (lines are located by a unique marker
//! substring so the fixtures can grow doc text without breaking the
//! assertions).
//!
//! The `rediscovers_seeded_*` tests mount a real source file with a
//! seeded-bug fixture appended at that file's own path and run the lint
//! with suppressions ignored: it must find the reverted lock inversion
//! in `crates/serve/src/batch.rs` and the FMA tail in
//! `crates/kernels/src/simd.rs`. The seeded code lives only in the
//! fixture corpus, never in a shipped module.

use lf_check::lint::{run, LintReport, Workspace};
use lf_check::rules::default_rules;
use std::path::Path;

/// Mount `text` at virtual workspace path `path` and run all rules.
fn lint_one(path: &str, text: &str, honor_suppressions: bool) -> LintReport {
    let ws = Workspace::from_sources(vec![(path.to_string(), text.to_string())]);
    run(&ws, &default_rules(), honor_suppressions)
}

/// 1-based line of the first line containing `marker`.
fn line_of(text: &str, marker: &str) -> usize {
    text.lines()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in fixture"))
        + 1
}

fn assert_fires(report: &LintReport, rule: &str, file: &str, line: usize) {
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line),
        "expected [{rule}] at {file}:{line}; got {:?}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{} [{}]", f.file, f.line, f.rule))
            .collect::<Vec<_>>()
    );
}

#[test]
fn unsafe_without_safety_comment_fires() {
    let text = include_str!("lint_fixtures/unsafe_no_safety.rs");
    let report = lint_one("crates/core/src/fixture.rs", text, true);
    assert_fires(
        &report,
        "unsafe-needs-safety",
        "crates/core/src/fixture.rs",
        line_of(text, "unsafe {"),
    );
}

#[test]
fn explicit_ordering_outside_sim_fires() {
    let text = include_str!("lint_fixtures/ordering.rs");
    let report = lint_one("crates/serve/src/fixture.rs", text, true);
    assert_fires(
        &report,
        "ordering-whitelist",
        "crates/serve/src/fixture.rs",
        line_of(text, "Ordering::SeqCst"),
    );
    // The same file under crates/sim/ is whitelisted.
    let sim = lint_one("crates/sim/src/fixture.rs", text, true);
    assert!(
        sim.findings.iter().all(|f| f.rule != "ordering-whitelist"),
        "orderings inside crates/sim/ must not fire"
    );
}

#[test]
fn lock_inversion_fires_on_second_acquisition() {
    let text = include_str!("lint_fixtures/lock_order.rs");
    let report = lint_one("crates/serve/src/board.rs", text, true);
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/board.rs",
        line_of(text, "lock(&self.open)"),
    );
    // The first acquisition (group.state with nothing held) is legal.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .count(),
        1
    );
}

#[test]
fn handle_rwlock_is_a_leaf() {
    let text = include_str!("lint_fixtures/handle_leaf.rs");
    let report = lint_one("crates/serve/src/handle.rs", text, true);
    // Direct `.write()` guard: taking a shard underneath is an
    // inversion…
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/handle.rs",
        line_of(text, "lock(&self.shards[0])"),
    );
    // …and so is anything acquired through the `self.read()` helper.
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/handle.rs",
        line_of(text, "lock(&board.open)"),
    );
    // The hasher's `.write()` and the initial guards themselves are
    // clean: exactly the two violations above.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .count(),
        2,
        "unexpected lock-order findings: {:?}",
        report.findings
    );
}

#[test]
fn handle_update_mutex_precedes_the_handle_lock() {
    let text = include_str!("lint_fixtures/handle_updater.rs");
    let report = lint_one("crates/serve/src/handle.rs", text, true);
    // Taking the update mutex under the handle's write guard inverts the
    // declared order (and nests under a leaf)…
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/handle.rs",
        line_of(text, "let _late = self.updater.lock();"),
    );
    // …while update mutex, then handle lock, is the declared order.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .count(),
        1,
        "unexpected lock-order findings: {:?}",
        report.findings
    );
}

#[test]
fn unshielded_unwrap_in_request_path_fires() {
    let text = include_str!("lint_fixtures/panic_path.rs");
    let report = lint_one("crates/serve/src/engine.rs", text, true);
    assert_fires(
        &report,
        "panic-path",
        "crates/serve/src/engine.rs",
        line_of(text, "slot.unwrap()"),
    );
    // Outside the request path the same code is fine.
    let elsewhere = lint_one("crates/serve/src/fixture.rs", text, true);
    assert!(elsewhere.findings.iter().all(|f| f.rule != "panic-path"));
}

#[test]
fn unshielded_unwrap_in_the_plan_cache_fires() {
    // The cache module is request path too: a lookup or admit that
    // panics would poison a shard for every later request.
    let text = include_str!("lint_fixtures/panic_path.rs");
    let report = lint_one("crates/serve/src/cache.rs", text, true);
    assert_fires(
        &report,
        "panic-path",
        "crates/serve/src/cache.rs",
        line_of(text, "slot.unwrap()"),
    );
}

#[test]
fn cache_shard_accessor_is_a_leaf() {
    let text = include_str!("lint_fixtures/cache_shard_leaf.rs");
    let report = lint_one("crates/serve/src/cache.rs", text, true);
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/cache.rs",
        line_of(text, "let open = lock(&board.open);"),
    );
    // Only the acquisition under the live guard: `admit_ok` drops it
    // first.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .count(),
        1,
        "unexpected lock-order findings: {:?}",
        report.findings
    );
}

#[test]
fn demotion_queue_is_a_leaf_under_the_writer_lock() {
    let text = include_str!("lint_fixtures/demotion_queue.rs");
    let report = lint_one("crates/serve/src/cache.rs", text, true);
    assert_fires(
        &report,
        "lock-order",
        "crates/serve/src/cache.rs",
        line_of(text, "let w = lock(&self.writing);"),
    );
    // Writer lock, then queue, is the declared order.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .count(),
        1,
        "unexpected lock-order findings: {:?}",
        report.findings
    );
}

#[test]
fn mul_add_in_kernel_code_fires() {
    let text = include_str!("lint_fixtures/determinism.rs");
    let report = lint_one("crates/kernels/src/fixture.rs", text, true);
    assert_fires(
        &report,
        "determinism",
        "crates/kernels/src/fixture.rs",
        line_of(text, "mul_add"),
    );
}

#[test]
fn ledger_flags_unmapped_variant_and_wildcard_arm() {
    let text = include_str!("lint_fixtures/ledger_enum.rs");
    let report = lint_one("crates/core/src/error.rs", text, true);
    assert_fires(
        &report,
        "ledger-exhaustive",
        "crates/core/src/error.rs",
        line_of(text, "BackendUnavailable"),
    );
    assert_fires(
        &report,
        "ledger-exhaustive",
        "crates/core/src/error.rs",
        line_of(text, "_ => \"failed\""),
    );
}

#[test]
fn suppression_with_reason_waives_the_finding() {
    let text = include_str!("lint_fixtures/suppressed_with_reason.rs");
    let report = lint_one("crates/kernels/src/fixture.rs", text, true);
    assert!(
        report.findings.is_empty(),
        "reasoned suppression must waive: {:?}",
        report.findings
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "determinism");
    // --no-suppress surfaces it again.
    let raw = lint_one("crates/kernels/src/fixture.rs", text, false);
    assert_fires(
        &raw,
        "determinism",
        "crates/kernels/src/fixture.rs",
        line_of(text, "mul_add"),
    );
}

#[test]
fn suppression_without_reason_is_inert_and_flagged() {
    let text = include_str!("lint_fixtures/suppressed_no_reason.rs");
    let report = lint_one("crates/kernels/src/fixture.rs", text, true);
    // The underlying finding still fires…
    assert_fires(
        &report,
        "determinism",
        "crates/kernels/src/fixture.rs",
        line_of(text, "mul_add"),
    );
    // …and the reason-less comment is itself a finding.
    assert_fires(
        &report,
        "suppression-needs-reason",
        "crates/kernels/src/fixture.rs",
        line_of(text, "lf-lint: allow(determinism)"),
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let text = include_str!("lint_fixtures/unused_suppression.rs");
    let report = lint_one("crates/kernels/src/fixture.rs", text, true);
    assert_fires(
        &report,
        "unused-suppression",
        "crates/kernels/src/fixture.rs",
        line_of(text, "lf-lint: allow(determinism):"),
    );
}

// ---------------------------------------------------------------------
// Seeded-bug rediscovery against the real workspace.
// ---------------------------------------------------------------------

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace loads")
}

/// Lint the real `path` (its checked-in `text`) with suppressions
/// ignored, once alone and once with a seeded-bug fixture appended, and
/// return both reports. The real file supplies the type context (struct
/// fields, lock declarations, imports) the rules resolve the seeded code
/// against; the seeded code itself never ships.
fn lint_seeded(path: &str, text: &str, seeded: &str) -> (LintReport, LintReport) {
    (
        lint_one(path, text, false),
        lint_one(path, &format!("{text}\n{seeded}"), false),
    )
}

#[test]
fn rediscovers_seeded_lock_inversion_in_batch_rs() {
    let (real, seeded) = lint_seeded(
        "crates/serve/src/batch.rs",
        include_str!("../../serve/src/batch.rs"),
        include_str!("lint_fixtures/seeded_batch_close.rs"),
    );
    let inversion = |r: &LintReport| {
        r.findings.iter().any(|f| {
            f.rule == "lock-order"
                && f.file == "crates/serve/src/batch.rs"
                && f.msg.contains("BatchBoard.open")
                && f.msg.contains("BatchGroup.state")
        })
    };
    assert!(
        inversion(&seeded),
        "lock-order must rediscover the seeded group-then-board inversion: {:?}",
        seeded
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .collect::<Vec<_>>()
    );
    assert!(!inversion(&real), "the shipped batch.rs has no inversion");
}

#[test]
fn rediscovers_seeded_fma_in_simd_rs() {
    let (real, seeded) = lint_seeded(
        "crates/kernels/src/simd.rs",
        include_str!("../../kernels/src/simd.rs"),
        include_str!("lint_fixtures/seeded_simd_fma.rs"),
    );
    let fma = |r: &LintReport| {
        r.findings
            .iter()
            .any(|f| f.rule == "determinism" && f.file == "crates/kernels/src/simd.rs")
    };
    assert!(
        fma(&seeded),
        "determinism must rediscover the seeded mul_add tail"
    );
    assert!(!fma(&real), "the shipped simd.rs has no mul_add");
}

#[test]
fn real_workspace_is_clean_with_suppressions_honored() {
    let ws = real_workspace();
    let report = run(&ws, &default_rules(), true);
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean: {:?}",
        report.findings
    );
    // Every waiver in the tree is in active use (no unused-suppression
    // findings above) and carries a reason.
    assert!(report.suppressed.iter().all(|f| !f.msg.is_empty()));
}
