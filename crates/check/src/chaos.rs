//! Deterministic fault injection for the serving layer's chaos tier.
//!
//! Robustness claims ("a panicking plan is quarantined", "a failed CELL
//! build degrades to CSR", "the outcome ledger balances under faults")
//! are only testable if faults actually happen, on demand, reproducibly.
//! This module is the fault source: a process-global [`ChaosPlan`] maps
//! each injection [`ChaosSite`] to a per-mille rate, and every call to
//! [`decide`] draws a deterministic verdict from
//! `splitmix64(seed ^ site ^ n)` where `n` is that site's decision
//! counter.
//!
//! Properties the tier relies on:
//!
//! * **Seeded.** For a fixed seed, decision `n` at a site is a pure
//!   function — re-running a failing seed re-injects the same fault
//!   *schedule* (which request draws which decision still depends on
//!   thread interleaving, as in any concurrent chaos harness, but the
//!   injected fraction and the fault pattern are reproducible).
//! * **Inert by default.** With no plan installed, [`decide`] is one
//!   relaxed load and always `false`; production callers additionally
//!   compile the call sites out unless their `chaos` feature is on.
//! * **Accounted.** Decision and injection counts per site are exposed
//!   so tests can assert the achieved fault rate (e.g. "≥ 5% of
//!   requests saw a fault") instead of trusting the configured one.
//!
//! The plan is global state: harnesses that install one must not run
//! concurrently with other chaos harnesses in the same process (the
//! serve chaos tier keeps all chaos scenarios inside one `#[test]`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Places in the serving pipeline where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Panic inside plan composition (models a composer bug).
    ComposePanic = 0,
    /// Panic inside plan execution (models a kernel bug; trips the
    /// quarantine protocol when the plan was cached).
    ExecutePanic = 1,
    /// A scratch/plan allocation fails (models memory pressure;
    /// surfaced as a typed `ResourceExhausted`).
    AllocFail = 2,
    /// Composition is forced onto the slow path past its budget (models
    /// a pathological matrix; the engine must degrade, not stall).
    SlowPath = 3,
    /// The process "dies" mid-way through writing a demoted plan record
    /// to the disk tier: the temp file is left torn, never renamed.
    DemoteTorn = 4,
    /// Startup cache warming aborts part-way (models a crash during
    /// recovery itself; the next restart must still come up clean).
    WarmAbort = 5,
    /// A delta batch "dies" after validating but before committing the
    /// new epoch: the handle must stay on the old epoch, bitwise intact,
    /// and every plan it retires must still be retired later.
    UpdateTorn = 6,
    /// The RAM sweep of retired-epoch plans aborts part-way: some stale
    /// entries survive in cache and must stay unreachable until a later
    /// sweep retires them.
    EpochSweepAbort = 7,
    /// Disk invalidation of a retired epoch is skipped: the stale record
    /// stays on disk and must be refused (or ignored) on every future
    /// read, never served against the new epoch.
    StaleDiskRecord = 8,
    /// The process "dies" with demotions still in the write-behind
    /// queue: the demotion writer stops before its next batch, and the
    /// queued plans never reach disk. A restart must come up clean.
    DemoteQueuedKill = 9,
}

/// All sites, for iteration in harnesses and reports.
pub const CHAOS_SITES: [ChaosSite; 10] = [
    ChaosSite::ComposePanic,
    ChaosSite::ExecutePanic,
    ChaosSite::AllocFail,
    ChaosSite::SlowPath,
    ChaosSite::DemoteTorn,
    ChaosSite::WarmAbort,
    ChaosSite::UpdateTorn,
    ChaosSite::EpochSweepAbort,
    ChaosSite::StaleDiskRecord,
    ChaosSite::DemoteQueuedKill,
];

impl ChaosSite {
    /// Stable name for logs and failure reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::ComposePanic => "compose_panic",
            ChaosSite::ExecutePanic => "execute_panic",
            ChaosSite::AllocFail => "alloc_fail",
            ChaosSite::SlowPath => "slow_path",
            ChaosSite::DemoteTorn => "demote_torn",
            ChaosSite::WarmAbort => "warm_abort",
            ChaosSite::UpdateTorn => "update_torn",
            ChaosSite::EpochSweepAbort => "epoch_sweep_abort",
            ChaosSite::StaleDiskRecord => "stale_disk_record",
            ChaosSite::DemoteQueuedKill => "demote_queued_kill",
        }
    }

    /// Per-site salt so sites draw independent streams from one seed.
    /// Each salt belongs to its site, not to its position, so a site's
    /// fault stream for a seed stays the same when sites are renumbered.
    fn salt(self) -> u64 {
        // Arbitrary odd constants, distinct per site.
        match self {
            ChaosSite::ComposePanic => 0xa076_1d64_78bd_642f,
            ChaosSite::ExecutePanic => 0xe703_7ed1_a0b4_28db,
            ChaosSite::AllocFail => 0x8ebc_6af0_9c88_c6e3,
            ChaosSite::SlowPath => 0x5899_65cc_7537_4cc3,
            ChaosSite::DemoteTorn => 0x1d8e_4e27_c47d_124f,
            ChaosSite::WarmAbort => 0x9c6e_6877_736c_46e3,
            ChaosSite::UpdateTorn => 0x2f63_8c92_6e9f_3a11,
            ChaosSite::EpochSweepAbort => 0xd1b5_4a32_d192_ed03,
            ChaosSite::StaleDiskRecord => 0x8d90_fdb7_35c9_0b2d,
            ChaosSite::DemoteQueuedKill => 0x6a09_e667_f3bc_c909,
        }
    }
}

/// Per-site injection rates (per-mille) plus the seed; the whole plan is
/// `Copy` so [`decide`] can snapshot it cheaply.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Injection rate per site, in per-mille (0..=1000), indexed by
    /// `ChaosSite as usize`.
    pub permille: [u16; CHAOS_SITES.len()],
}

impl ChaosPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn disabled(seed: u64) -> Self {
        ChaosPlan {
            seed,
            permille: [0; CHAOS_SITES.len()],
        }
    }

    /// The same rate at every site.
    pub fn uniform(seed: u64, permille: u16) -> Self {
        ChaosPlan {
            seed,
            permille: [permille; CHAOS_SITES.len()],
        }
    }

    /// Set one site's rate (builder style).
    pub fn with_rate(mut self, site: ChaosSite, permille: u16) -> Self {
        self.permille[site as usize] = permille;
        self
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<ChaosPlan>> = Mutex::new(None);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static DECISIONS: [AtomicU64; CHAOS_SITES.len()] = [ZERO; CHAOS_SITES.len()];
static INJECTED: [AtomicU64; CHAOS_SITES.len()] = [ZERO; CHAOS_SITES.len()];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Install `plan` as the process-wide chaos plan and zero all counters.
pub fn install(plan: ChaosPlan) {
    let mut slot = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for i in 0..CHAOS_SITES.len() {
        DECISIONS[i].store(0, Ordering::Relaxed);
        INJECTED[i].store(0, Ordering::Relaxed);
    }
    *slot = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove any installed plan; [`decide`] returns to always-`false`.
/// Counters keep their final values for post-run assertions.
pub fn reset() {
    ACTIVE.store(false, Ordering::Release);
    *PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Whether a plan is currently installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Draw the next deterministic verdict for `site`: `true` means the
/// caller must inject the fault. Always `false` with no plan installed.
pub fn decide(site: ChaosSite) -> bool {
    if !ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    let plan = match *PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        Some(p) => p,
        None => return false,
    };
    let i = site as usize;
    let n = DECISIONS[i].fetch_add(1, Ordering::Relaxed);
    let rate = plan.permille[i];
    if rate == 0 {
        return false;
    }
    let hit = splitmix64(plan.seed ^ site.salt() ^ n) % 1000 < u64::from(rate);
    if hit {
        INJECTED[i].fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// How many verdicts `site` has drawn since the last [`install`].
pub fn decisions(site: ChaosSite) -> u64 {
    DECISIONS[site as usize].load(Ordering::Relaxed)
}

/// How many of those verdicts were injections.
pub fn injected(site: ChaosSite) -> u64 {
    INJECTED[site as usize].load(Ordering::Relaxed)
}

/// Total injections across all sites since the last [`install`].
pub fn injected_total() -> u64 {
    CHAOS_SITES.iter().map(|&s| injected(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan is process-global, so every test scenario runs inside
    // this single #[test] (Rust runs tests in one process, threaded).
    #[test]
    fn chaos_plan_semantics() {
        // Every site sits at its own index, with a distinct name and salt.
        for (i, s) in CHAOS_SITES.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{} is out of place", s.name());
            for t in &CHAOS_SITES[..i] {
                assert_ne!(s.name(), t.name());
                assert_ne!(s.salt(), t.salt());
            }
        }

        // Inert by default.
        reset();
        assert!(!active());
        for s in CHAOS_SITES {
            assert!(!decide(s));
        }

        // Deterministic: same seed, same verdict sequence.
        let draw = |seed: u64| -> Vec<bool> {
            install(ChaosPlan::uniform(seed, 200));
            let v = (0..512).map(|_| decide(ChaosSite::ComposePanic)).collect();
            reset();
            v
        };
        let a = draw(42);
        let b = draw(42);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        let c = draw(43);
        assert_ne!(a, c, "different seeds must differ");

        // Rate is approximately honored and accounted exactly.
        install(ChaosPlan::uniform(7, 200));
        let mut hits = 0u64;
        for _ in 0..2000 {
            if decide(ChaosSite::AllocFail) {
                hits += 1;
            }
        }
        assert_eq!(decisions(ChaosSite::AllocFail), 2000);
        assert_eq!(injected(ChaosSite::AllocFail), hits);
        assert_eq!(injected_total(), hits);
        let rate = hits as f64 / 2000.0;
        assert!(
            (0.1..=0.3).contains(&rate),
            "20% nominal rate drew {rate:.3}"
        );

        // Sites draw independent streams: with one site zeroed, it never
        // fires while the others still do.
        install(ChaosPlan::uniform(7, 500).with_rate(ChaosSite::ExecutePanic, 0));
        let mut others = 0u64;
        for _ in 0..200 {
            assert!(!decide(ChaosSite::ExecutePanic));
            if decide(ChaosSite::SlowPath) {
                others += 1;
            }
        }
        assert!(others > 0, "non-zeroed sites must keep firing");
        assert_eq!(injected(ChaosSite::ExecutePanic), 0);

        // Counters survive reset for post-run assertions.
        reset();
        assert_eq!(injected(ChaosSite::SlowPath), others);
        assert!(!decide(ChaosSite::SlowPath));
    }
}
