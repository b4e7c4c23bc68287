//! Where a plan lives: the sharded, byte-budgeted RAM LRU of prepared
//! plans and the disk tier behind it (DESIGN.md §8, §13).
//!
//! [`PlanCache`] owns every placement decision the engine makes —
//! lookup, admission under the byte budget, write-behind demotion of
//! evicted plans to disk, promotion back on a RAM miss, quarantine of
//! poisoned plans, warming from disk at startup, snapshots, and the
//! retirement of stale epochs (RAM first, then disk) — together with the
//! counters that describe them. It never composes or executes a plan.
//!
//! Each shard lock is a leaf: no other lock is taken while one is held,
//! and disk I/O always runs after the shard lock is released.

use crate::config::ServeConfig;
use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::stats::{bump, ServeStats};
use crate::store::{PlanStore, StoreConfig};
use lf_sim::atomicf::AtomicScalar;
use liteform_core::{LfError, LfResult, PreparedPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cache key: the matrix and the dense width its plan is tuned for.
pub(crate) type Key = (Fingerprint, usize);

/// A cached plan plus its poison flag. The `Arc` is shared between the
/// shard map and in-flight executions, so a request that catches the
/// plan panicking can quarantine it for everyone: the first poisoner
/// (atomic swap) evicts the entry; late lookups that still see the entry
/// treat a poisoned slot as a miss and sweep it.
pub(crate) struct PlanSlot<T: AtomicScalar> {
    pub(crate) plan: PreparedPlan<T>,
    poisoned: AtomicBool,
    /// Measured compose cost, nanoseconds — what a miss on this plan
    /// would re-pay. Travels with the plan into the disk tier, where
    /// the cost-aware placement policy ranks on it.
    pub(crate) cost_ns: u64,
}

impl<T: AtomicScalar> PlanSlot<T> {
    pub(crate) fn new(plan: PreparedPlan<T>, cost_ns: u64) -> Arc<Self> {
        Arc::new(PlanSlot {
            plan,
            poisoned: AtomicBool::new(false),
            cost_ns,
        })
    }

    /// Whether an execution panic has quarantined this plan.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

struct Entry<T: AtomicScalar> {
    slot: Arc<PlanSlot<T>>,
    bytes: usize,
    last_used: u64,
    /// Cache hits this entry served (seeds the disk tier's frequency
    /// accounting when the entry is demoted).
    uses: u64,
}

struct Shard<T: AtomicScalar> {
    map: HashMap<Key, Entry<T>>,
    bytes: usize,
}

impl<T: AtomicScalar> Shard<T> {
    /// Remove an entry and release its bytes.
    fn remove(&mut self, key: &Key) -> Option<Entry<T>> {
        let evicted = self.map.remove(key)?;
        self.bytes -= evicted.bytes;
        Some(evicted)
    }
}

#[derive(Default)]
struct Counters {
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    demotions: AtomicU64,
    disk_hits: AtomicU64,
    promotions: AtomicU64,
    warm_loaded: AtomicU64,
    warm_rejected: AtomicU64,
    stale_evicted: AtomicU64,
    oversized: AtomicU64,
    quarantined: AtomicU64,
}

/// The two-tier plan cache; see the module docs.
pub(crate) struct PlanCache<T: AtomicScalar> {
    shards: Vec<Mutex<Shard<T>>>,
    /// Each shard's slice of the RAM byte budget.
    shard_budget: usize,
    /// Logical clock for LRU recency; bumped on every touch.
    tick: AtomicU64,
    /// The disk tier (`None` when `store_dir` is unset or the directory
    /// could not be opened — the cache then runs RAM-only).
    store: Option<PlanStore<T>>,
    counters: Counters,
}

impl<T: AtomicScalar> PlanCache<T> {
    /// Build the cache for `config`. With a `store_dir`, the disk tier
    /// is opened (stray temp files from a crash are swept) and RAM is
    /// **warmed** from it; a directory that cannot be opened degrades
    /// the cache to RAM-only rather than failing.
    pub(crate) fn open(config: &ServeConfig) -> Self {
        let shards = config.shards.max(1);
        let store = config.store_dir.as_ref().and_then(|dir| {
            PlanStore::open(StoreConfig {
                dir: dir.into(),
                disk_budget_bytes: config.disk_budget_bytes,
                placement: config.placement,
            })
            .ok()
        });
        let cache = PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            shard_budget: (config.byte_budget / shards).max(1),
            tick: AtomicU64::new(0),
            store,
            counters: Counters::default(),
        };
        cache.warm_from_disk(config.byte_budget);
        cache
    }

    /// The shard a fingerprint maps to.
    fn shard(&self, fp: &Fingerprint) -> &Mutex<Shard<T>> {
        // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
        &self.shards[fp.shard(self.shards.len())]
    }

    /// Load records highest-retention-score first until `budget` bytes
    /// are resident, so warming never triggers its own eviction churn.
    /// Every record is strictly re-validated by [`PlanStore::get`];
    /// rejections count in `warm_rejected` and the record is deleted.
    fn warm_from_disk(&self, budget: usize) {
        let Some(store) = &self.store else { return };
        // Files the store already swept at open (unreadable header) are
        // rejections too — same contract: skipped, counted, not served.
        bump(&self.counters.warm_rejected, store.swept_corrupt() as u64);
        let mut loaded_bytes = 0usize;
        for ((fp, j), _) in store.warm_order() {
            if loaded_bytes >= budget {
                break;
            }
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::WarmAbort) {
                    // Simulated kill mid-warm: the engine comes up with
                    // a partial cache. Correctness must not depend on
                    // warming finishing.
                    break;
                }
            }
            match store.get(&fp, j) {
                Ok(Some((plan, meta))) => {
                    let bytes = plan.format_bytes();
                    let slot = PlanSlot::new(plan, meta.cost_ns);
                    if self.admit((fp, j), slot, meta.uses.saturating_sub(1)) {
                        bump(&self.counters.warm_loaded, 1);
                        loaded_bytes += bytes;
                    }
                }
                Ok(None) => {}
                Err(e) => self.note_record_rejection(&e),
            }
        }
    }

    /// Account one disk-record rejection: a retired-epoch refusal counts
    /// as a stale eviction, everything else as generic warm rejection.
    fn note_record_rejection(&self, e: &LfError) {
        let class = if crate::store::is_stale_epoch(e) {
            &self.counters.stale_evicted
        } else {
            &self.counters.warm_rejected
        };
        bump(class, 1);
    }

    /// Persist every cached RAM plan to the disk tier and rewrite the
    /// manifest. Returns the number of plans written (`Ok(0)` without a
    /// store). Poisoned slots are skipped: a quarantined plan must never
    /// resurrect through a snapshot.
    pub(crate) fn snapshot(&self) -> LfResult<usize> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        // Clone the Arcs out under each shard lock, write behind.
        let mut plans = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (key, e) in &shard.map {
                if !e.slot.is_poisoned() {
                    plans.push((*key, Arc::clone(&e.slot), e.uses));
                }
            }
        }
        for ((fp, j), slot, uses) in &plans {
            store.put(fp, *j, &slot.plan, slot.cost_ns, *uses)?;
        }
        Ok(plans.len())
    }

    /// The disk tier's placement-policy name, when a store is open.
    pub(crate) fn store_policy(&self) -> Option<&'static str> {
        self.store.as_ref().map(|s| s.policy_name())
    }

    /// The cached plan for `key`, touching its recency. A poisoned entry
    /// is swept and reported as a miss.
    pub(crate) fn lookup(&self, key: &Key) -> Option<Arc<PlanSlot<T>>> {
        let mut shard = lock(self.shard(&key.0));
        let entry = shard.map.get_mut(key)?;
        if !entry.slot.is_poisoned() {
            entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            entry.uses += 1;
            return Some(Arc::clone(&entry.slot));
        }
        // Belt-and-braces sweep: the poisoner evicts under the shard
        // lock, so this window is a replaced-entry race at most — never
        // serve a poisoned plan.
        shard.remove(key);
        None
    }

    /// Answer a RAM miss from the disk tier. A validated record is
    /// decoded, counted (`disk_hits`), and re-admitted into RAM
    /// (`promotions` — unless oversized for its shard slice). A record
    /// that fails strict validation is counted (the store deleted it)
    /// and the caller composes fresh.
    pub(crate) fn promote(&self, key: &Key) -> Option<Arc<PlanSlot<T>>> {
        let store = self.store.as_ref()?;
        match store.get(&key.0, key.1) {
            Ok(Some((plan, meta))) => {
                bump(&self.counters.disk_hits, 1);
                let slot = PlanSlot::new(plan, meta.cost_ns);
                if self.admit(*key, Arc::clone(&slot), meta.uses) {
                    bump(&self.counters.promotions, 1);
                }
                Some(slot)
            }
            Ok(None) => None,
            Err(e) => {
                self.note_record_rejection(&e);
                None
            }
        }
    }

    /// Admit a plan under its shard's byte budget, evicting whole
    /// least-recently-used plans to make room, and seed its frequency
    /// with `uses` (warm loads and promotions carry their disk-tier use
    /// counts back into RAM). A plan bigger than the whole slice is
    /// oversized (served, not cached); a concurrent insert of the same
    /// key wins and this plan just drops. Returns whether the plan was
    /// inserted.
    ///
    /// Eviction is **write-behind demoting**: victims leave the shard
    /// under the lock, then — with no lock held — each is offered to the
    /// disk tier.
    pub(crate) fn admit(&self, key: Key, slot: Arc<PlanSlot<T>>, uses: u64) -> bool {
        debug_assert!(!slot.plan.degraded, "degraded plans are never cached");
        let bytes = slot.plan.format_bytes();
        if bytes > self.shard_budget {
            bump(&self.counters.oversized, 1);
            return false;
        }
        let mut victims = Vec::new();
        {
            let mut shard = lock(self.shard(&key.0));
            if shard.map.contains_key(&key) {
                return false;
            }
            while shard.bytes + bytes > self.shard_budget {
                let lru = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                // Over budget with an empty map cannot happen (bytes
                // are only charged by entries); stop rather than spin.
                let Some(evicted) = lru.and_then(|k| shard.remove(&k).map(|e| (k, e))) else {
                    break;
                };
                victims.push(evicted);
            }
            shard.bytes += bytes;
            let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            shard.map.insert(
                key,
                Entry {
                    slot,
                    bytes,
                    last_used,
                    uses,
                },
            );
        }
        bump(&self.counters.evictions, victims.len() as u64);
        for (key, entry) in &victims {
            self.demote(key, entry);
        }
        true
    }

    /// Offer an evicted RAM entry to the disk tier (no shard lock is
    /// held). A successful write counts as a demotion; a failed write,
    /// no store, or a poisoned plan counts its bytes as dropped
    /// (`evicted_bytes`).
    fn demote(&self, key: &Key, entry: &Entry<T>) {
        let demoted = match &self.store {
            Some(store) if !entry.slot.is_poisoned() => store
                .put(
                    &key.0,
                    key.1,
                    &entry.slot.plan,
                    entry.slot.cost_ns,
                    entry.uses,
                )
                .is_ok(),
            _ => false,
        };
        if demoted {
            bump(&self.counters.demotions, 1);
        } else {
            bump(&self.counters.evicted_bytes, entry.bytes as u64);
        }
    }

    /// Poison `slot` and evict its entry from both tiers — exactly once
    /// across all concurrent holders (the poison swap elects one winner;
    /// the `ptr_eq` check keeps a racing re-insert of the same key
    /// alive).
    pub(crate) fn quarantine(&self, key: &Key, slot: &Arc<PlanSlot<T>>) {
        if slot.poisoned.swap(true, Ordering::Relaxed) {
            return; // someone else already quarantined this plan
        }
        bump(&self.counters.quarantined, 1);
        let mut shard = lock(self.shard(&key.0));
        if shard
            .map
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
        {
            shard.remove(key);
        }
        drop(shard);
        // Purge the disk tier too: a poisoned plan must not resurrect
        // through a later promotion or a restart warm.
        if let Some(store) = &self.store {
            store.remove(&key.0, key.1);
        }
    }

    /// Every healthy RAM plan cached for `fp`, with its width — the
    /// candidates an update migrates to the next epoch.
    pub(crate) fn plans_for(&self, fp: &Fingerprint) -> Vec<(usize, Arc<PlanSlot<T>>)> {
        // Every width of a fingerprint maps to the same shard.
        let shard = lock(self.shard(fp));
        shard
            .map
            .iter()
            .filter(|((f, _), e)| f == fp && !e.slot.is_poisoned())
            .map(|((_, j), e)| (*j, Arc::clone(&e.slot)))
            .collect()
    }

    /// Drop every RAM entry keyed by `fp` (all widths). Stale entries
    /// are discarded, not demoted — a retired epoch must not re-enter
    /// through the disk tier.
    fn retire_ram(&self, fp: &Fingerprint) {
        let mut shard = lock(self.shard(fp));
        let keys: Vec<Key> = shard.map.keys().filter(|(f, _)| f == fp).copied().collect();
        for key in &keys {
            shard.remove(key);
        }
        drop(shard);
        bump(&self.counters.stale_evicted, keys.len() as u64);
    }

    /// Delete every disk record keyed by `fp`.
    fn retire_disk(&self, fp: &Fingerprint) {
        if let Some(store) = &self.store {
            bump(&self.counters.stale_evicted, store.remove_matrix(fp) as u64);
        }
    }

    /// Retire one fingerprint from both tiers, RAM first (so a promotion
    /// cannot resurrect what RAM just dropped), then disk. Every retired
    /// plan counts in `stale_evicted`.
    pub(crate) fn retire_epoch(&self, fp: &Fingerprint) {
        self.retire_ram(fp);
        self.retire_disk(fp);
    }

    /// [`retire_epoch`](Self::retire_epoch) for each of an update's
    /// retired fingerprints, under the update path's chaos kill points.
    /// Returns the fingerprints confirmed clean in both tiers; the rest
    /// keep their stale entries — unreachable, since the epoch is part
    /// of every key — until a later sweep retries.
    pub(crate) fn retire_epochs(&self, fps: &[Fingerprint]) -> Vec<Fingerprint> {
        let mut done = Vec::new();
        for fp in fps {
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::EpochSweepAbort) {
                    // Simulated kill before this epoch's sweep: both
                    // tiers keep their stale entries.
                    continue;
                }
            }
            self.retire_ram(fp);
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::StaleDiskRecord) {
                    // Simulated kill between the RAM and disk halves:
                    // the stale record stays on disk. Read-side epoch
                    // validation refuses it if anything ever asks.
                    continue;
                }
            }
            self.retire_disk(fp);
            done.push(*fp);
        }
        done
    }

    /// Drop every RAM plan (counters are preserved).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.map.clear();
            shard.bytes = 0;
        }
    }

    /// Fill the cache's counters and occupancy into `s`.
    pub(crate) fn report(&self, s: &mut ServeStats) {
        let (mut plans, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let shard = lock(shard);
            plans += shard.map.len();
            bytes += shard.bytes;
        }
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        s.evictions = load(&c.evictions);
        s.evicted_bytes = load(&c.evicted_bytes);
        s.demotions = load(&c.demotions);
        s.disk_hits = load(&c.disk_hits);
        s.promotions = load(&c.promotions);
        s.warm_loaded = load(&c.warm_loaded);
        s.warm_rejected = load(&c.warm_rejected);
        s.stale_evicted = load(&c.stale_evicted);
        s.oversized = load(&c.oversized);
        s.quarantined = load(&c.quarantined);
        s.cached_plans = plans;
        s.cached_bytes = bytes;
        s.store_bytes = self.store.as_ref().map_or(0, |s| s.bytes() as usize);
    }
}

#[cfg(test)]
mod tests {
    use crate::planner::FixedCellPlanner;
    use crate::{Fingerprint, ServeConfig, ServeEngine, ServeStats};
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
    }

    fn engine() -> ServeEngine<f64, FixedCellPlanner> {
        ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default())
    }

    fn assert_ledger_balances(s: &ServeStats) {
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed
        );
    }

    #[test]
    fn distinct_j_widths_are_distinct_plans() {
        let e = engine();
        let a = matrix(2);
        let mut rng = Pcg32::seed_from_u64(98);
        let b8 = DenseMatrix::random(128, 8, &mut rng);
        let b16 = DenseMatrix::random(128, 16, &mut rng);
        assert!(!e.serve(&a, &b8).unwrap().hit);
        assert!(!e.serve(&a, &b16).unwrap().hit, "j is part of the key");
        assert!(e.serve(&a, &b8).unwrap().hit);
        assert_eq!(e.stats().cached_plans, 2);
    }

    #[test]
    fn byte_budget_evicts_lru_whole_plans() {
        // One shard, budget sized for ~1 plan: every new matrix evicts
        // the previous one.
        let probe = engine();
        let mut rng = Pcg32::seed_from_u64(96);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let one = probe.serve(&matrix(10), &b).unwrap();
        drop(one);
        let plan_bytes = probe.stats().cached_bytes;
        assert!(plan_bytes > 0);

        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                shards: 1,
                byte_budget: plan_bytes + plan_bytes / 2,
                ..ServeConfig::default()
            },
        );
        for seed in [20u64, 21, 22] {
            assert!(!e.serve(&matrix(seed), &b).unwrap().hit);
        }
        let s = e.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 2, "evictions: {}", s.evictions);
        assert_eq!(s.cached_plans, 1, "whole plans are evicted");
        assert!(s.cached_bytes <= s.cached_bytes.max(plan_bytes * 3 / 2));
    }

    #[test]
    fn oversized_plans_are_served_but_never_cached() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                shards: 1,
                byte_budget: 16,
                ..ServeConfig::default()
            },
        );
        let mut rng = Pcg32::seed_from_u64(95);
        let a = matrix(30);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();
        let out = e.serve(&a, &b).unwrap();
        assert!(out.result.approx_eq(&want, 1e-9));
        let s = e.stats();
        assert_eq!(s.oversized, 1);
        assert_eq!(s.cached_plans, 0);
        // The same request misses again: nothing was cached. An
        // oversized plan is still a clean miss in the ledger.
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_eq!(e.stats().misses, 2);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn quarantine_evicts_exactly_once_and_poisoned_plans_never_reserve() {
        let e = engine();
        let a = matrix(43);
        let mut rng = Pcg32::seed_from_u64(88);
        let b = DenseMatrix::random(128, 8, &mut rng);
        e.serve(&a, &b).unwrap();
        let key = (Fingerprint::of_csr(&a), 8);
        let slot = e.cache.lookup(&key).expect("plan was cached");

        // Two concurrent panickers race the quarantine: exactly one wins.
        e.cache.quarantine(&key, &slot);
        e.cache.quarantine(&key, &slot);
        let s = e.stats();
        assert_eq!(s.quarantined, 1, "quarantine is exactly-once");
        assert_eq!(s.cached_plans, 0, "the poisoned plan was evicted");

        // A holder that still has the Arc can never re-serve it.
        assert!(slot.is_poisoned());
        assert!(e.cache.lookup(&key).is_none());

        // The key itself is not tainted: the next request recomposes.
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_eq!(e.stats().cached_plans, 1);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn clear_resets_cache_but_not_counters() {
        let e = engine();
        let mut rng = Pcg32::seed_from_u64(94);
        let a = matrix(50);
        let b = DenseMatrix::random(128, 8, &mut rng);
        e.serve(&a, &b).unwrap();
        e.clear();
        let s = e.stats();
        assert_eq!(s.cached_plans, 0);
        assert_eq!(s.cached_bytes, 0);
        assert_eq!(s.misses, 1);
        assert!(!e.serve(&a, &b).unwrap().hit, "cleared cache misses again");
    }
}
