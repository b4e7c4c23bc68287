//! `lock-order`: mutex acquisitions must respect the declared lock
//! hierarchy.
//!
//! The serving stack's deadlock-freedom argument (PR 5/6) is a total
//! order: `BatchBoard.open` → `BatchGroup.state` → `JoinSlot.state`,
//! then the matrix handle's update mutex (held across a delta batch's
//! build, ordered before the handle's own lock), with the matrix-handle
//! `RwLock`, the `PlanCache` shards (`cache.rs`),
//! the demotion queue, the plan store, and the planner's breaker map as
//! *leaf* locks (nothing may be acquired while holding one), the
//! demotion writer's batch lock ordered before the queue and the store,
//! and the thread-pool job mutexes never nested under any serving lock.
//! The bounded model checker proves specific interleavings; this rule
//! proves the *shape*, statically, for every function — including ones
//! no model scenario drives.
//!
//! Mechanics: for each non-test `fn` in `crates/{serve,sim,core,
//! kernels}/src`, the rule extracts the guard-scope acquisition
//! sequence (`.lock()` / `try_lock()` methods, the `.read()` /
//! `.write()` RwLock methods, and the `lock(…)` / `lock_unpoisoned(…)`
//! helpers; a `let`-bound guard lives to its enclosing block, a
//! temporary to its statement, and `drop(guard)` releases early).
//! Receivers are classified into lock classes using the file path and
//! enclosing-`impl` type — `.read()`/`.write()` only ever classify via
//! the handle's `shared` field, so hasher and I/O `write` calls never
//! match. Acquiring a class at a
//! level ≤ a held class, or anything under a leaf, is an inversion.
//! Effects propagate one level through a name-based intra-workspace
//! call graph (common std-colliding method names are stoplisted), and
//! calling a pool-dispatch entry point (`parallel_for`, `broadcast`,
//! kernel `run*`, …) while holding any serving lock is flagged
//! directly.

use crate::lex::{next_code, prev_code, Delim, ItemKind, TokKind};
use crate::lint::{Finding, Rule, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// See the module docs.
pub struct LockOrder;

/// One declared lock class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Human name used in findings.
    pub name: &'static str,
    /// Position in the total order: smaller acquires first.
    pub level: u8,
    /// Leaf locks admit no nested acquisition at all.
    pub leaf: bool,
}

const BOARD: LockClass = LockClass {
    name: "BatchBoard.open",
    level: 10,
    leaf: false,
};
const GROUP: LockClass = LockClass {
    name: "BatchGroup.state",
    level: 20,
    leaf: false,
};
const SLOT: LockClass = LockClass {
    name: "JoinSlot.state",
    level: 30,
    leaf: false,
};
const HANDLE_UPDATER: LockClass = LockClass {
    name: "MatrixHandle.updater",
    level: 33,
    leaf: false,
};
const HANDLE: LockClass = LockClass {
    name: "MatrixHandle.shared",
    level: 35,
    leaf: true,
};
const SHARD: LockClass = LockClass {
    name: "cache shard",
    level: 40,
    leaf: true,
};
const DEMOTE_WRITER: LockClass = LockClass {
    name: "demotion writer",
    level: 42,
    leaf: false,
};
const DEMOTE_PENDING: LockClass = LockClass {
    name: "demotion queue",
    level: 44,
    leaf: true,
};
const STORE: LockClass = LockClass {
    name: "PlanStore.state",
    level: 45,
    leaf: true,
};
const BREAKER: LockClass = LockClass {
    name: "planner breaker",
    level: 48,
    leaf: true,
};
const POOL_STATE: LockClass = LockClass {
    name: "ThreadPool.state",
    level: 60,
    leaf: false,
};
const POOL_ACTIVE: LockClass = LockClass {
    name: "pool Job.active",
    level: 70,
    leaf: false,
};
const POOL_PANIC: LockClass = LockClass {
    name: "pool Job.panic",
    level: 75,
    leaf: false,
};

/// Functions that hand work to the thread pool; reaching one while
/// holding any serving lock nests the pool's job mutexes under it —
/// the "cache shard → never pool job mutex" edge of the hierarchy.
const POOL_ENTRIES: [&str; 13] = [
    "parallel_for",
    "parallel_for_init",
    "parallel_ranges",
    "parallel_map",
    "parallel_map_init",
    "broadcast",
    "wait_idle",
    "run_tiled",
    "run_batched",
    "run_batched_on",
    "parallel_csr_spmm_tiled",
    "run_forced_atomic",
    "spmm_reference",
];

/// Method names too generic for name-based call-graph propagation
/// (they collide with std collection methods on every other receiver;
/// `read`/`write` with `io::Read`/`Write` and the fingerprint hasher;
/// `current` with `thread::current` and `cancel::current`; `csr` with
/// the kernel accessors; `apply_updates` with the out-of-scope
/// `CsrMatrix` method the handle forwards to).
const CALL_STOPLIST: [&str; 29] = [
    "get",
    "put",
    "insert",
    "remove",
    "len",
    "push",
    "take",
    "clone",
    "iter",
    "next",
    "map",
    "new",
    "lock",
    "drop",
    "wait",
    "notify_all",
    "notify_one",
    "contains_key",
    "get_mut",
    "is_empty",
    "pop",
    "clear",
    "fmt",
    "unwrap",
    "read",
    "write",
    "apply_updates",
    "current",
    "csr",
];

const KEYWORDS: [&str; 8] = [
    "if", "while", "match", "for", "loop", "return", "let", "else",
];

fn in_scope(path: &str) -> bool {
    (path.starts_with("crates/serve/src/")
        || path.starts_with("crates/sim/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/kernels/src/"))
        && !path.contains("lint_fixtures")
}

/// Classify a lock receiver (`self.open`, `group.state`,
/// `self.shards[]`, …) given its file and enclosing-impl type.
fn classify(path: &str, impl_ty: Option<&str>, recv: &str) -> Option<LockClass> {
    let in_pool = path.ends_with("pool.rs");
    let last = recv.rsplit(['.']).next().unwrap_or(recv);
    let last = last.trim_end_matches("[]");
    if recv.contains("shards") {
        return Some(SHARD);
    }
    match last {
        // `PlanCache::shard(fp)`, the accessor every cache method locks
        // its shard through.
        "shard()" if path.starts_with("crates/serve/") => Some(SHARD),
        "open" if path.starts_with("crates/serve/") => Some(BOARD),
        "shared" if path.starts_with("crates/serve/") => Some(HANDLE),
        "updater" if path.starts_with("crates/serve/") => Some(HANDLE_UPDATER),
        // `Disk::writing`, held for a whole demotion batch, and
        // `Disk::pending`, the write-behind queue (cache.rs).
        "writing" if path.starts_with("crates/serve/") => Some(DEMOTE_WRITER),
        "pending" if path.starts_with("crates/serve/") => Some(DEMOTE_PENDING),
        "failures" => Some(BREAKER),
        "active" if in_pool => Some(POOL_ACTIVE),
        "panic" if in_pool => Some(POOL_PANIC),
        "state" => {
            if recv.starts_with("group") {
                return Some(GROUP);
            }
            if recv.starts_with("slot") {
                return Some(SLOT);
            }
            match impl_ty {
                Some("BatchGroup") => Some(GROUP),
                Some("JoinSlot") => Some(SLOT),
                Some("PlanStore") => Some(STORE),
                Some("ThreadPool") => Some(POOL_STATE),
                _ if in_pool => Some(POOL_STATE),
                _ => None,
            }
        }
        _ => None,
    }
}

struct Acquisition {
    tok: usize,
    class: LockClass,
}

struct FnInfo {
    file: usize,
    name: String,
    body: (usize, usize),
    /// Body ranges of *nested* fn items, excluded from this fn's scan.
    holes: Vec<(usize, usize)>,
    impl_ty: Option<String>,
}

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }
    fn describe(&self) -> &'static str {
        "mutex acquisitions follow the declared BatchBoard→BatchGroup→JoinSlot hierarchy; \
         the handle's update mutex precedes the handle lock; handle/shards/demotion \
         queue/store/breaker are leaves; the demotion writer lock precedes the queue and \
         the store; nothing serving-side nests over pool mutexes"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let fns = collect_fns(ws);
        // Pass 1: per-function direct acquisition summaries, merged by
        // name for the one-level call-graph propagation.
        let mut summary: BTreeMap<&str, BTreeSet<u8>> = BTreeMap::new();
        let mut classes_by_level: BTreeMap<u8, LockClass> = BTreeMap::new();
        for info in &fns {
            let f = &ws.files[info.file];
            for acq in direct_acquisitions(f, info) {
                classes_by_level.insert(acq.class.level, acq.class);
                summary
                    .entry(info.name.as_str())
                    .or_default()
                    .insert(acq.class.level);
            }
        }
        // Pass 2: guard-scope walk per function.
        for info in &fns {
            let f = &ws.files[info.file];
            walk_fn(self, f, info, &summary, &classes_by_level, out);
        }
    }
}

fn collect_fns(ws: &Workspace) -> Vec<FnInfo> {
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !in_scope(&f.path) {
            continue;
        }
        for (idx, item) in f.items.items.iter().enumerate() {
            let ItemKind::Fn { name } = &item.kind else {
                continue;
            };
            let Some(body) = item.body else { continue };
            if f.items.in_test(body.0) || item.test_only {
                continue;
            }
            let holes: Vec<(usize, usize)> = f
                .items
                .items
                .iter()
                .enumerate()
                .filter(|(j, it)| {
                    *j != idx
                        && matches!(it.kind, ItemKind::Fn { .. })
                        && it.body.is_some_and(|(o, c)| body.0 < o && c < body.1)
                })
                .filter_map(|(_, it)| it.body)
                .collect();
            let impl_ty = item.parent.and_then(|p| match &f.items.items[p].kind {
                ItemKind::Impl { type_name } => Some(type_name.clone()),
                _ => None,
            });
            out.push(FnInfo {
                file: fi,
                name: name.clone(),
                body,
                holes,
                impl_ty,
            });
        }
    }
    out
}

fn in_hole(info: &FnInfo, i: usize) -> bool {
    info.holes.iter().any(|&(o, c)| o <= i && i <= c)
}

/// Every classified acquisition directly in `info`'s own body (nested
/// fns excluded) — the per-function summary for call-graph
/// propagation.
fn direct_acquisitions(f: &SourceFile, info: &FnInfo) -> Vec<Acquisition> {
    let (open, close) = info.body;
    (open + 1..close)
        .filter(|&i| !in_hole(info, i))
        .filter_map(|i| acquisition_at(f, info, i))
        .collect()
}

/// Detect a lock acquisition whose receiver classifies, at token `i`.
fn acquisition_at(f: &SourceFile, info: &FnInfo, i: usize) -> Option<Acquisition> {
    if f.toks[i].kind != TokKind::Ident {
        return None;
    }
    let s = f.tok_text(i);
    let next = next_code(&f.toks, i + 1)?;
    if !matches!(f.toks[next].kind, TokKind::Open(Delim::Paren)) {
        return None;
    }
    let prev_dot = i
        .checked_sub(1)
        .and_then(|j| prev_code(&f.toks, j))
        .is_some_and(|p| matches!(f.toks[p].kind, TokKind::Punct('.')));
    let recv = if (s == "lock" || s == "try_lock") && prev_dot {
        receiver_before_dot(f, i)
    } else if (s == "read" || s == "write") && prev_dot {
        // RwLock acquisitions. Inside `impl MatrixHandle`, bare
        // `self.read()` / `self.write()` are the handle's own lock
        // helpers forwarding to `self.shared` — substitute the field so
        // every handle method's hold is tracked directly, not only the
        // two helpers. Everything else (`hasher.write(word)`,
        // `io::Write`) keeps its literal receiver and fails to
        // classify.
        let r = receiver_before_dot(f, i);
        if r == "self" && info.impl_ty.as_deref() == Some("MatrixHandle") {
            "self.shared".to_string()
        } else {
            r
        }
    } else if (s == "lock" || s == "lock_unpoisoned") && !prev_dot {
        receiver_in_parens(f, next)
    } else {
        return None;
    };
    let class = classify(&f.path, info.impl_ty.as_deref(), &recv)?;
    Some(Acquisition { tok: i, class })
}

/// Receiver of `recv.lock()`: walk the path backwards from the method
/// name (`self.shards[i].lock()` → `self.shards[]`).
fn receiver_before_dot(f: &SourceFile, method: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = method - 1; // the `.`
    while let Some(p) = j.checked_sub(1).and_then(|k| prev_code(&f.toks, k)) {
        match f.toks[p].kind {
            TokKind::Ident => parts.push(f.tok_text(p).to_string()),
            TokKind::Punct('.') => parts.push(".".into()),
            TokKind::Close(Delim::Bracket) => {
                parts.push("[]".into());
                let Some(open) = f.pair[p] else { break };
                j = open;
                continue;
            }
            _ => break,
        }
        j = p;
    }
    parts.reverse();
    parts.concat().trim_start_matches('.').to_string()
}

/// Receiver inside `lock(&x.y[z])` / `lock_unpoisoned(&…)`.
fn receiver_in_parens(f: &SourceFile, open: usize) -> String {
    let close = f.pair[open].unwrap_or(open);
    let mut out = String::new();
    let mut j = open + 1;
    while j < close {
        let t = &f.toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        match t.kind {
            TokKind::Punct('&') | TokKind::Punct('*') => {}
            TokKind::Ident if f.tok_text(j) == "mut" => {}
            TokKind::Ident => out.push_str(f.tok_text(j)),
            TokKind::Punct('.') => out.push('.'),
            TokKind::Open(Delim::Bracket) => {
                out.push_str("[]");
                j = f.pair[j].unwrap_or(j);
            }
            TokKind::Open(Delim::Paren) => {
                out.push_str("()");
                j = f.pair[j].unwrap_or(j);
            }
            TokKind::Punct(',') => break,
            _ => break,
        }
        j += 1;
    }
    out
}

struct Guard {
    name: Option<String>,
    class: LockClass,
    scope_end: usize,
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    rule: &LockOrder,
    f: &SourceFile,
    info: &FnInfo,
    summary: &BTreeMap<&str, BTreeSet<u8>>,
    classes_by_level: &BTreeMap<u8, LockClass>,
    out: &mut Vec<Finding>,
) {
    let (open, close) = info.body;
    let mut guards: Vec<Guard> = Vec::new();
    // Stack of enclosing block close-brace token indices, for guard
    // lifetimes.
    let mut blocks: Vec<usize> = vec![close];
    let mut i = open + 1;
    while i < close {
        if in_hole(info, i) {
            i += 1;
            continue;
        }
        let t = &f.toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        guards.retain(|g| i < g.scope_end);
        match t.kind {
            TokKind::Open(Delim::Brace) => {
                blocks.push(f.pair[i].unwrap_or(close));
            }
            TokKind::Close(Delim::Brace) if blocks.last() == Some(&i) => {
                blocks.pop();
            }
            TokKind::Ident => {
                // Early release: `drop(guard)`.
                if f.tok_text(i) == "drop" {
                    if let Some(name) = single_paren_ident(f, i) {
                        guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                        i += 1;
                        continue;
                    }
                }
                if let Some(acq) = acquisition_at(f, info, i) {
                    for g in &guards {
                        report_violation(rule, f, acq.tok, &acq.class, &g.class, None, out);
                    }
                    let (name, scope_end) = guard_binding(f, i, &blocks);
                    guards.push(Guard {
                        name,
                        class: acq.class,
                        scope_end,
                    });
                    i += 1;
                    continue;
                }
                // Call-site propagation.
                if let Some(callee) = call_at(f, i) {
                    if !guards.is_empty() {
                        if POOL_ENTRIES.contains(&callee) {
                            for g in &guards {
                                if g.class.level < POOL_STATE.level {
                                    report_pool_dispatch(rule, f, i, callee, &g.class, out);
                                }
                            }
                        } else if !CALL_STOPLIST.contains(&callee) {
                            if let Some(levels) = summary.get(callee) {
                                for lvl in levels {
                                    let c = &classes_by_level[lvl];
                                    for g in &guards {
                                        report_violation(
                                            rule,
                                            f,
                                            i,
                                            c,
                                            &g.class,
                                            Some(callee),
                                            out,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// `drop ( ident )` → the ident.
fn single_paren_ident(f: &SourceFile, i: usize) -> Option<String> {
    let open = next_code(&f.toks, i + 1)?;
    if !matches!(f.toks[open].kind, TokKind::Open(Delim::Paren)) {
        return None;
    }
    let arg = next_code(&f.toks, open + 1)?;
    let close = next_code(&f.toks, arg + 1)?;
    (f.toks[arg].kind == TokKind::Ident && f.pair[open] == Some(close))
        .then(|| f.tok_text(arg).to_string())
}

/// A plain call `name(…)` at token `i` (not a definition, not a macro,
/// not a keyword).
fn call_at(f: &SourceFile, i: usize) -> Option<&str> {
    let s = f.tok_text(i);
    if KEYWORDS.contains(&s) {
        return None;
    }
    let next = next_code(&f.toks, i + 1)?;
    if !matches!(f.toks[next].kind, TokKind::Open(Delim::Paren)) {
        return None;
    }
    let is_def = i
        .checked_sub(1)
        .and_then(|j| prev_code(&f.toks, j))
        .is_some_and(|p| f.is_ident(p, "fn"));
    (!is_def).then_some(s)
}

/// For an acquisition at `i`: the `let`-bound guard name (if any) and
/// the token index where the guard's scope ends.
fn guard_binding(f: &SourceFile, i: usize, blocks: &[usize]) -> (Option<String>, usize) {
    let block_end = *blocks.last().expect("function body is always on the stack");
    // Walk back to the statement start looking for `let`.
    let mut let_tok = None;
    for j in (0..i).rev() {
        let t = &f.toks[j];
        if t.is_comment() {
            continue;
        }
        match t.kind {
            TokKind::Punct(';') | TokKind::Open(Delim::Brace) | TokKind::Close(Delim::Brace) => {
                break;
            }
            TokKind::Ident if f.tok_text(j) == "let" => {
                let_tok = Some(j);
            }
            _ => {}
        }
    }
    match let_tok {
        Some(l) => {
            // `let [mut] NAME` / `let Ok(NAME)` / `let (A, …)`.
            let mut name = None;
            if let Some(mut n) = next_code(&f.toks, l + 1) {
                if f.is_ident(n, "mut") {
                    n = next_code(&f.toks, n + 1).unwrap_or(n);
                }
                if f.toks[n].kind == TokKind::Ident {
                    let after = next_code(&f.toks, n + 1);
                    let destructures = after
                        .is_some_and(|a| matches!(f.toks[a].kind, TokKind::Open(Delim::Paren)));
                    if destructures {
                        if let Some(inner) = after.and_then(|a| next_code(&f.toks, a + 1)) {
                            if f.toks[inner].kind == TokKind::Ident {
                                name = Some(f.tok_text(inner).to_string());
                            }
                        }
                    } else {
                        name = Some(f.tok_text(n).to_string());
                    }
                } else if matches!(f.toks[n].kind, TokKind::Open(Delim::Paren)) {
                    if let Some(inner) = next_code(&f.toks, n + 1) {
                        if f.toks[inner].kind == TokKind::Ident {
                            name = Some(f.tok_text(inner).to_string());
                        }
                    }
                }
            }
            (name, block_end)
        }
        None => {
            // Temporary guard: lives to the end of the statement.
            let stmt_depth = f.depth[i.min(f.depth.len() - 1)];
            let end = (i + 1..block_end)
                .find(|&j| {
                    matches!(f.toks[j].kind, TokKind::Punct(';')) && f.depth[j] <= stmt_depth
                })
                .unwrap_or(block_end);
            (None, end)
        }
    }
}

fn report_violation(
    rule: &LockOrder,
    f: &SourceFile,
    tok: usize,
    new: &LockClass,
    held: &LockClass,
    via_call: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let bad = held.leaf || new.level <= held.level;
    if !bad {
        return;
    }
    let how = match via_call {
        Some(callee) => format!("call to `{callee}` (which acquires {})", new.name),
        None => format!("acquisition of {}", new.name),
    };
    let why = if held.leaf {
        format!(
            "{} is a leaf lock: nothing may be acquired while holding it",
            held.name
        )
    } else if new.level == held.level && new.name == held.name {
        format!("re-acquiring {} self-deadlocks a std mutex", held.name)
    } else {
        format!(
            "declared order is {} (level {}) before {} (level {})",
            new.name, new.level, held.name, held.level
        )
    };
    out.push(Finding {
        file: f.path.clone(),
        line: f.toks[tok].line,
        rule: rule.name(),
        msg: format!("{how} while holding {}; {why}", held.name),
    });
}

fn report_pool_dispatch(
    rule: &LockOrder,
    f: &SourceFile,
    tok: usize,
    callee: &str,
    held: &LockClass,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        file: f.path.clone(),
        line: f.toks[tok].line,
        rule: rule.name(),
        msg: format!(
            "`{callee}` dispatches to the thread pool while holding {}; pool job \
             mutexes must never nest under serving locks",
            held.name
        ),
    });
}
