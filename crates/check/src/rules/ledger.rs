//! `ledger-exhaustive`: every `LfError` variant maps to exactly one
//! outcome-ledger counter class, and error matches stay wildcard-free.
//!
//! PR 5's invariant is an exact identity: `requests == hits + misses +
//! rejected + degraded + failed`. It only holds if every error the
//! engine can surface is classified into exactly one of those counters
//! — a new `LfError` variant that nobody mapped silently leaks requests
//! out of the ledger. The declared table below is the single source of
//! truth; this rule checks it three ways:
//!
//! 1. every variant of `enum LfError` (parsed from
//!    `crates/core/src/error.rs`) appears in the table, and vice versa;
//! 2. every `LfError::<Variant>` mention in `crates/serve/src` names a
//!    variant in the table (so a new variant shows up here the moment
//!    serving code touches it);
//! 3. `match`es whose body mentions `LfError` — in `error.rs` and the
//!    serving engine's modules
//!    ([`SERVE_ENGINE_FILES`](super::SERVE_ENGINE_FILES)) — have no bare
//!    `_ =>` arm, so adding a variant is a compile error at every
//!    classification point instead of a silent fall-through.

use crate::lex::{next_code, Delim, TokKind};
use crate::lint::{Finding, Rule, SourceFile, Workspace};

/// See the module docs.
pub struct LedgerExhaustive;

/// The declared variant → ledger-class table. `is_rejection()` in
/// `crates/core/src/error.rs` and the engine's single classification
/// point must agree with this.
pub const LEDGER_CLASSES: &[(&str, &str)] = &[
    ("InvalidInput", "rejected"),
    ("Overloaded", "rejected"),
    ("DeadlineExceeded", "failed"),
    ("ComposePanicked", "failed"),
    ("ExecutePanicked", "failed"),
    ("ResourceExhausted", "failed"),
    ("PlanDecode", "failed"),
];

fn class_of(variant: &str) -> Option<&'static str> {
    LEDGER_CLASSES
        .iter()
        .find(|(v, _)| *v == variant)
        .map(|(_, c)| *c)
}

impl Rule for LedgerExhaustive {
    fn name(&self) -> &'static str {
        "ledger-exhaustive"
    }
    fn describe(&self) -> &'static str {
        "every LfError variant has exactly one ledger class; no wildcard error matches"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if let Some(f) = ws.file_ending_with("crates/core/src/error.rs") {
            check_enum(self, f, out);
            check_wildcards(self, f, out);
        }
        for f in &ws.files {
            if f.path.starts_with("crates/serve/src/") {
                check_mentions(self, f, out);
            }
            if super::SERVE_ENGINE_FILES.contains(&f.path.as_str()) {
                check_wildcards(self, f, out);
            }
        }
    }
}

/// Parse `enum LfError { … }` and diff its variants against the table.
fn check_enum(rule: &LedgerExhaustive, f: &SourceFile, out: &mut Vec<Finding>) {
    let Some(kw) = (0..f.toks.len()).find(|&i| {
        f.is_ident(i, "enum") && next_code(&f.toks, i + 1).is_some_and(|n| f.is_ident(n, "LfError"))
    }) else {
        return;
    };
    let Some(open) =
        (kw..f.toks.len()).find(|&i| matches!(f.toks[i].kind, TokKind::Open(Delim::Brace)))
    else {
        return;
    };
    let Some(close) = f.pair[open] else { return };
    let body_depth = f.depth[open] + 1;
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut expect_variant = true;
    for i in open + 1..close {
        let t = &f.toks[i];
        if t.is_comment() || f.depth[i] != body_depth {
            continue;
        }
        match t.kind {
            // Skip `#[…]` attribute hashes; the bracket group is deeper.
            TokKind::Punct('#') => {}
            TokKind::Ident if expect_variant => {
                variants.push((f.tok_text(i).to_string(), t.line));
                expect_variant = false;
            }
            TokKind::Punct(',') => expect_variant = true,
            _ => {}
        }
    }
    for (v, line) in &variants {
        if class_of(v).is_none() {
            out.push(Finding {
                file: f.path.clone(),
                line: *line,
                rule: rule.name(),
                msg: format!(
                    "`LfError::{v}` has no declared ledger class; add it to \
                     LEDGER_CLASSES in crates/check/src/rules/ledger.rs and to the \
                     engine's classification so `requests == hits+misses+rejected+\
                     degraded+failed` keeps holding"
                ),
            });
        }
    }
    for (v, _) in LEDGER_CLASSES {
        if !variants.iter().any(|(name, _)| name == v) {
            out.push(Finding {
                file: f.path.clone(),
                line: f.toks[kw].line,
                rule: rule.name(),
                msg: format!(
                    "ledger table declares `{v}` but enum LfError has no such variant; \
                     drop the stale table row"
                ),
            });
        }
    }
}

/// Every `LfError::<V>` mention in serving code names a table variant.
fn check_mentions(rule: &LedgerExhaustive, f: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        if !f.is_ident(i, "LfError") || f.items.in_test(i) {
            continue;
        }
        let Some(c1) = next_code(&f.toks, i + 1) else {
            continue;
        };
        let Some(c2) = next_code(&f.toks, c1 + 1) else {
            continue;
        };
        let Some(v) = next_code(&f.toks, c2 + 1) else {
            continue;
        };
        if !(matches!(f.toks[c1].kind, TokKind::Punct(':'))
            && matches!(f.toks[c2].kind, TokKind::Punct(':'))
            && f.toks[v].kind == TokKind::Ident)
        {
            continue;
        }
        let name = f.tok_text(v);
        if class_of(name).is_none() {
            out.push(Finding {
                file: f.path.clone(),
                line: f.toks[v].line,
                rule: rule.name(),
                msg: format!(
                    "`LfError::{name}` is not in the ledger class table; every error \
                     the serving path touches must map to exactly one outcome counter"
                ),
            });
        }
    }
}

/// No bare `_ =>` arm in a `match` whose body mentions `LfError`.
fn check_wildcards(rule: &LedgerExhaustive, f: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        if !f.is_ident(i, "match") || f.items.in_test(i) {
            continue;
        }
        // Find the match body `{`, skipping groups in the scrutinee.
        let mut j = i + 1;
        let open = loop {
            if j >= f.toks.len() {
                break None;
            }
            match f.toks[j].kind {
                TokKind::Open(Delim::Brace) => break Some(j),
                TokKind::Open(_) => j = f.pair[j].map_or(j + 1, |c| c + 1),
                TokKind::Punct(';') => break None,
                _ => j += 1,
            }
        };
        let Some(open) = open else { continue };
        let Some(close) = f.pair[open] else { continue };
        // The match is "over LfError" only when an arm *pattern* (the
        // tokens before a top-level `=>`) names it — a match over a
        // `Result` that merely constructs `LfError` in arm bodies is
        // free to use `_`.
        let arm_depth = f.depth[open] + 1;
        let mut in_pattern = true;
        let mut over_lferror = false;
        for k in open + 1..close {
            if f.depth[k] == arm_depth {
                match f.toks[k].kind {
                    TokKind::Punct('=')
                        if next_code(&f.toks, k + 1)
                            .is_some_and(|g| matches!(f.toks[g].kind, TokKind::Punct('>'))) =>
                    {
                        in_pattern = false;
                    }
                    // `,` ends an expression arm, `}` a block-bodied one.
                    TokKind::Punct(',') | TokKind::Close(Delim::Brace) => in_pattern = true,
                    _ => {}
                }
            }
            if in_pattern && f.is_ident(k, "LfError") {
                over_lferror = true;
                break;
            }
        }
        if !over_lferror {
            continue;
        }
        for k in open + 1..close {
            if f.depth[k] != arm_depth || !f.is_ident(k, "_") {
                continue;
            }
            let eq = next_code(&f.toks, k + 1);
            let gt = eq.and_then(|e| next_code(&f.toks, e + 1));
            let is_arrow = eq.is_some_and(|e| matches!(f.toks[e].kind, TokKind::Punct('=')))
                && gt.is_some_and(|g| matches!(f.toks[g].kind, TokKind::Punct('>')));
            if is_arrow {
                out.push(Finding {
                    file: f.path.clone(),
                    line: f.toks[k].line,
                    rule: rule.name(),
                    msg: "wildcard `_ =>` arm in a match over LfError; spell the \
                          variants out so a new error class is a compile error at \
                          every ledger classification point"
                        .into(),
                });
            }
        }
    }
}
