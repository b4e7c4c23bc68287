//! `panic-path`: the serving request path and kernel inner loops must
//! not panic — except under a `catch_unwind` boundary or with an
//! explicit justification.
//!
//! A panic on a worker thread poisons locks and (pre-PR-5) deadlocked
//! batch joiners; the engine's contract is that compose/execute panics
//! are converted to `LfError::{Compose,Execute}Panicked` at the
//! `catch_unwind` boundaries and everything else is infallible. This
//! rule walks the serving engine's modules
//! ([`SERVE_ENGINE_FILES`](super::SERVE_ENGINE_FILES): engine, coalescer,
//! plan cache, handles — the request path) and `crates/kernels/src/**`
//! (inner loops) and flags, outside test code:
//!
//! * `.unwrap()` / `.expect(…)` calls,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
//!   `assert*!` macros (`debug_assert*!` is fine — stripped in release),
//! * slice indexing `expr[i]` in the serve request path (kernels index
//!   in every inner loop by design; their bounds discipline is enforced
//!   by the differential fuzzer instead).
//!
//! A site is shielded when it sits lexically inside a
//! `catch_unwind(…)` argument, or when **every** non-test call of its
//! enclosing function (one level, name-based) is itself shielded.
//! Anything else needs `// lf-lint: allow(panic-path): <why it cannot
//! fire>`.

use crate::lex::{next_code, prev_code, Delim, ItemKind, TokKind};
use crate::lint::{Finding, Rule, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// See the module docs.
pub struct PanicPath;

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that can directly precede `[` without forming an index
/// expression (array literals and the like).
const NON_RECEIVER_KEYWORDS: [&str; 6] = ["return", "break", "in", "as", "else", "match"];

fn in_scope(path: &str) -> bool {
    super::SERVE_ENGINE_FILES.contains(&path) || path.starts_with("crates/kernels/src/")
}

impl Rule for PanicPath {
    fn name(&self) -> &'static str {
        "panic-path"
    }
    fn describe(&self) -> &'static str {
        "no unshielded unwrap/expect/panic/index in the request path or kernel loops"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Pass 1: lexical catch_unwind shields, per file.
        let shields: BTreeMap<&str, Vec<(usize, usize)>> = ws
            .files
            .iter()
            .filter(|f| in_scope(&f.path))
            .map(|f| (f.path.as_str(), shield_ranges(f)))
            .collect();
        // Pass 2: which functions are called *only* under shields
        // (one-level propagation: a panic inside `compose_plan` is fine
        // when every `compose_plan(…)` call sits under catch_unwind).
        let covered = covered_fns(ws, &shields);
        // Pass 3: the sites.
        for f in ws.files.iter().filter(|f| in_scope(&f.path)) {
            let shield = &shields[f.path.as_str()];
            for i in 0..f.toks.len() {
                let Some(site) = panic_site(f, i) else {
                    continue;
                };
                if f.items.in_test(i) || inside(shield, i) {
                    continue;
                }
                let enclosing =
                    f.items
                        .enclosing_fn(i)
                        .and_then(|it| match &f.items.items[it].kind {
                            ItemKind::Fn { name } => Some(name.clone()),
                            _ => None,
                        });
                if enclosing.as_deref().is_some_and(|n| covered.contains(n)) {
                    continue;
                }
                out.push(Finding {
                    file: f.path.clone(),
                    line: f.toks[i].line,
                    rule: self.name(),
                    msg: format!(
                        "{site} outside a catch_unwind boundary in the \
                         {} path; shield it or justify with \
                         `lf-lint: allow(panic-path): …`",
                        if f.path.starts_with("crates/kernels/") {
                            "kernel"
                        } else {
                            "request"
                        }
                    ),
                });
            }
        }
    }
}

/// Classify token `i` as a panic site, returning a description.
fn panic_site(f: &SourceFile, i: usize) -> Option<String> {
    match f.toks[i].kind {
        TokKind::Ident => {
            let s = f.tok_text(i);
            let next = next_code(&f.toks, i + 1)?;
            if (s == "unwrap" || s == "expect")
                && matches!(f.toks[next].kind, TokKind::Open(Delim::Paren))
            {
                let prev = i.checked_sub(1).and_then(|j| prev_code(&f.toks, j))?;
                if matches!(f.toks[prev].kind, TokKind::Punct('.')) {
                    return Some(format!("`.{s}()`"));
                }
            }
            if PANIC_MACROS.contains(&s) && matches!(f.toks[next].kind, TokKind::Punct('!')) {
                return Some(format!("`{s}!`"));
            }
            None
        }
        // Slice indexing, request path only (see module docs).
        TokKind::Open(Delim::Bracket) if !f.path.starts_with("crates/kernels/") => {
            let prev = i.checked_sub(1).and_then(|j| prev_code(&f.toks, j))?;
            let is_receiver = match f.toks[prev].kind {
                TokKind::Ident => !NON_RECEIVER_KEYWORDS.contains(&f.tok_text(prev)),
                TokKind::Close(Delim::Paren) | TokKind::Close(Delim::Bracket) => true,
                _ => false,
            };
            is_receiver.then(|| "slice index".to_string())
        }
        _ => None,
    }
}

/// Token ranges lexically inside a `catch_unwind(…)` argument.
fn shield_ranges(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..f.toks.len() {
        if !f.is_ident(i, "catch_unwind") {
            continue;
        }
        if let Some(open) = next_code(&f.toks, i + 1) {
            if matches!(f.toks[open].kind, TokKind::Open(Delim::Paren)) {
                if let Some(close) = f.pair[open] {
                    out.push((open, close));
                }
            }
        }
    }
    out
}

fn inside(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| lo < i && i < hi)
}

/// Function names whose every non-test call site (within the scoped
/// files) is under a shield. Functions that are never called in scope
/// are *not* covered — an uncalled helper must justify its own panics.
fn covered_fns(ws: &Workspace, shields: &BTreeMap<&str, Vec<(usize, usize)>>) -> BTreeSet<String> {
    let mut calls: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // name -> (total, shielded)
    for f in ws.files.iter().filter(|f| in_scope(&f.path)) {
        let shield = &shields[f.path.as_str()];
        for i in 0..f.toks.len() {
            if f.toks[i].kind != TokKind::Ident || f.items.in_test(i) {
                continue;
            }
            let Some(next) = next_code(&f.toks, i + 1) else {
                continue;
            };
            if !matches!(f.toks[next].kind, TokKind::Open(Delim::Paren)) {
                continue;
            }
            // Not a definition (`fn name(`), not a macro (`name!(` has
            // the `!` between — already excluded by adjacency).
            let is_def = i
                .checked_sub(1)
                .and_then(|j| prev_code(&f.toks, j))
                .is_some_and(|p| f.is_ident(p, "fn"));
            if is_def {
                continue;
            }
            let e = calls.entry(f.tok_text(i).to_string()).or_insert((0, 0));
            e.0 += 1;
            if inside(shield, i) {
                e.1 += 1;
            }
        }
    }
    calls
        .into_iter()
        .filter(|(_, (total, shielded))| *total > 0 && total == shielded)
        .map(|(name, _)| name)
        .collect()
}
