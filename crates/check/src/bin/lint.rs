//! Source-invariant lint driver: runs the [`lf_check::rules`] registry
//! over the workspace via the [`lf_check::lint`] engine.
//!
//! ```text
//! lint [ROOT] [--json[=PATH]] [--no-suppress] [--rules]
//! ```
//!
//! * `ROOT` — workspace root to scan (default: two levels above this
//!   crate's `Cargo.toml`, i.e. the repo root).
//! * `--json[=PATH]` — emit the machine-readable report (findings +
//!   suppressed findings + file count) to stdout or `PATH`; CI uploads
//!   this as the findings artifact.
//! * `--no-suppress` — ignore `lf-lint: allow` comments; the
//!   seeded-bug regression tests use this mode to prove each rule
//!   still rediscovers its planted inversion.
//! * `--rules` — list the registry and exit.
//!
//! Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/I/O error.

use lf_check::lint::{self, Workspace};
use lf_check::rules::default_rules;
use std::path::PathBuf;
use std::process::ExitCode;

fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<Option<PathBuf>> = None;
    let mut honor_suppressions = true;
    for arg in std::env::args().skip(1) {
        if arg == "--no-suppress" {
            honor_suppressions = false;
        } else if arg == "--json" {
            json = Some(None);
        } else if let Some(path) = arg.strip_prefix("--json=") {
            json = Some(Some(PathBuf::from(path)));
        } else if arg == "--rules" {
            for rule in default_rules() {
                println!("{:<22} {}", rule.name(), rule.describe());
            }
            return ExitCode::SUCCESS;
        } else if arg.starts_with('-') {
            eprintln!("lint: unknown option `{arg}`");
            return ExitCode::from(2);
        } else if root.is_none() {
            root = Some(PathBuf::from(arg));
        } else {
            eprintln!("lint: more than one ROOT argument");
            return ExitCode::from(2);
        }
    }
    let root = root.unwrap_or_else(default_root);
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = lint::run(&ws, &default_rules(), honor_suppressions);
    match &json {
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, lint::render_json(&report)) {
                eprintln!("lint: failed to write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprint!("{}", lint::render_human(&report));
        }
        Some(None) => {
            print!("{}", lint::render_json(&report));
            eprint!("{}", lint::render_human(&report));
        }
        None => print!("{}", lint::render_human(&report)),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
