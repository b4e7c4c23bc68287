//! The rule catalog. Each submodule is one workspace invariant; the
//! registry in [`default_rules`] is what the `lint` binary and the
//! regression tests run.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety` | every `unsafe` carries an attached `SAFETY:` justification |
//! | `ordering-whitelist`  | only `Relaxed` atomics outside `crates/sim` + `crates/check` |
//! | `lock-order`          | acquisitions respect the declared lock hierarchy |
//! | `panic-path`          | no unshielded panics in the request path / kernel loops |
//! | `determinism`         | no FMA, wall-clock, or hash-iteration in result-affecting code |
//! | `ledger-exhaustive`   | every `LfError` variant maps to exactly one ledger class |

pub mod determinism;
pub mod ledger;
pub mod lock_order;
pub mod ordering;
pub mod panic_path;
pub mod unsafe_safety;

use crate::lint::Rule;

/// The serving engine's modules: ingress, routing and the group path
/// (`engine.rs`), the coalescer (`batch.rs`), the plan cache
/// (`cache.rs`), registered handles (`handle.rs`), and the config and
/// report types. `panic-path` treats them as the request path, and
/// `ledger-exhaustive` forbids wildcard error matches in them.
pub const SERVE_ENGINE_FILES: [&str; 6] = [
    "crates/serve/src/engine.rs",
    "crates/serve/src/batch.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/handle.rs",
    "crates/serve/src/config.rs",
    "crates/serve/src/stats.rs",
];

/// The full registry, in documentation order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(unsafe_safety::UnsafeNeedsSafety),
        Box::new(ordering::OrderingWhitelist),
        Box::new(lock_order::LockOrder),
        Box::new(panic_path::PanicPath),
        Box::new(determinism::Determinism),
        Box::new(ledger::LedgerExhaustive),
    ]
}
