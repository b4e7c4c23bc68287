//! Where a plan lives: the sharded, byte-budgeted RAM LRU of prepared
//! plans and the disk tier behind it (DESIGN.md §8, §13).
//!
//! [`PlanCache`] owns every placement decision the engine makes —
//! lookup, admission under the byte budget, write-behind demotion of
//! evicted CELL plans to disk, promotion back on a RAM miss, quarantine
//! of poisoned plans, warming from disk at startup, snapshots, and the
//! retirement of stale epochs (RAM first, then disk) — together with the
//! counters that describe them. It never composes or executes a plan.
//!
//! Each shard lock is a leaf: no other lock is taken while one is held,
//! and disk I/O always runs after the shard lock is released.
//!
//! ## Write-behind demotion
//!
//! With a disk tier, an evicted plan does not reach disk on the thread
//! whose admission evicted it. It goes into a byte-bounded pending map
//! (bound: one shard's RAM slice), and one named background writer —
//! not a pool worker, since it blocks in `fsync` — drains the map in
//! batches, one record per queued plan. Queued plans stay promotable: a
//! RAM miss checks the queue before the disk and gets the evicted `Arc`
//! back. The protocol:
//!
//! * an enqueue that would push the queue past its bound writes that
//!   victim synchronously instead (back-pressure, never a drop), and
//!   re-demoting a queued key replaces its entry;
//! * the writer removes a key only after its write finished, and only
//!   if the entry is still the same `Arc`; it skips poisoned slots;
//! * retirement and quarantine purge their keys from the queue, then
//!   take the writer's `writing` lock — waiting out any in-flight write
//!   of those keys — before deleting from disk, so no retired or
//!   poisoned record lands after its removal;
//! * `flush_demotions` blocks until the queue is empty and its last
//!   batch has finished writing; `snapshot` and `Drop` drain
//!   through it. A kill may lose queued demotions, never expose a torn
//!   or stale record.
//!
//! Lock order: `writing` (held for a whole batch) before the pending
//! map and the store index, both leaves.
//!
//! ## Which plans demote
//!
//! Only CELL plans. A record pays back only when reading it is cheaper
//! than composing the plan again. A fixed-CSR plan is cached as a
//! **verdict**: its tile, tuned width, features and epoch, tens of
//! bytes, with no operand — it runs over the matrix each request
//! already carries. Recomposing one costs about 41 µs (traced median
//! `compose.total_us` on `zipf_spill`), while reading a record back
//! costs 350–760 µs. An evicted verdict is therefore dropped and
//! counted in `evicted_bytes`, under either placement policy, and
//! `snapshot` skips verdicts the same way. A fixed-CSR record already
//! on disk (written by an older engine) still promotes and warms, as a
//! verdict, and ages out under the placement score. On `zipf_spill`,
//! where 64 of 96 keys are fixed CSR, caching verdicts instead of
//! operand copies took `latency_p50_ms` from 0.51 to 0.38 ms (2 vCPUs,
//! 10 alternating 25 s pairs, 10/10 better).

use crate::config::ServeConfig;
use crate::fingerprint::Fingerprint;
use crate::stats::{bump, ServeStats};
use crate::store::{PlanStore, StoreConfig};
use crate::{lock, wait};
use lf_sim::atomicf::AtomicScalar;
use liteform_core::{LfError, LfResult, PreparedPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
    /// the cost-aware placement policy ranks on it. Eviction does not
    /// read it: a fixed-CSR verdict, whose recompose (about 41 µs) is
    /// below a record read (350–760 µs), is dropped whatever its cost,
    /// and a CELL plan is demoted whatever its cost (see `demote`).
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

impl Counters {
    /// Count a finished demotion: every eviction it stands for is a
    /// demotion when its record was written, dropped bytes otherwise.
    fn settle_demotion<T: AtomicScalar>(&self, written: bool, q: &Queued<T>) {
        if written {
            bump(&self.demotions, q.evictions);
        } else {
            bump(&self.evicted_bytes, q.victim_bytes);
        }
    }
}

/// An evicted plan waiting in the write-behind queue.
struct Queued<T: AtomicScalar> {
    slot: Arc<PlanSlot<T>>,
    /// The use count its record is written with.
    uses: u64,
    /// The plan's RAM bytes, charged against the queue bound.
    bytes: usize,
    /// Evictions this entry stands for: re-demoting a queued key folds
    /// the earlier eviction into the new entry.
    evictions: u64,
    /// Their bytes, counted as dropped if no record is ever written.
    victim_bytes: u64,
}

/// The write-behind queue (under `Disk::pending`, a leaf lock).
struct Queue<T: AtomicScalar> {
    map: HashMap<Key, Queued<T>>,
    bytes: usize,
    /// Set on drop: the writer drains what is queued, then exits.
    shutdown: bool,
    /// No writer runs (it exited, or never spawned): enqueues hand their
    /// victim back for a synchronous write, and flushes return at once.
    writer_gone: bool,
}

/// The disk tier and its write-behind queue, shared with the writer.
struct Disk<T: AtomicScalar> {
    store: PlanStore<T>,
    pending: Mutex<Queue<T>>,
    /// Wakes the writer when work arrives or on shutdown.
    work: Condvar,
    /// Wakes flushers when keys leave the queue.
    idle: Condvar,
    /// Held by the writer for a whole batch; retirement and quarantine
    /// take it to wait out an in-flight write before deleting records.
    writing: Mutex<()>,
    /// Queue byte bound: one shard's RAM slice.
    bound: usize,
}

/// Marks the writer gone when it exits, by return or by unwind, so no
/// flush waits on a writer that will never drain.
struct WriterExit<'a, T: AtomicScalar>(&'a Disk<T>);

impl<T: AtomicScalar> Drop for WriterExit<'_, T> {
    fn drop(&mut self) {
        lock(&self.0.pending).writer_gone = true;
        self.0.idle.notify_all();
    }
}

impl<T: AtomicScalar> Disk<T> {
    fn new(store: PlanStore<T>, bound: usize) -> Self {
        Disk {
            store,
            pending: Mutex::new(Queue {
                map: HashMap::new(),
                bytes: 0,
                shutdown: false,
                writer_gone: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            writing: Mutex::new(()),
            bound,
        }
    }

    /// Queue a demotion for the writer. `Err` hands the entry back for a
    /// synchronous write: no writer runs, or it would push the queue
    /// past its bound.
    fn enqueue_demotion(&self, key: Key, mut entry: Queued<T>) -> Result<(), Queued<T>> {
        let mut q = lock(&self.pending);
        if q.writer_gone {
            return Err(entry);
        }
        if let Some(old) = q.map.remove(&key) {
            q.bytes -= old.bytes;
            entry.evictions += old.evictions;
            entry.victim_bytes += old.victim_bytes;
        }
        if q.bytes + entry.bytes > self.bound {
            self.idle.notify_all();
            return Err(entry);
        }
        q.bytes += entry.bytes;
        q.map.insert(key, entry);
        drop(q);
        self.work.notify_one();
        Ok(())
    }

    /// The queued plan for `key`, counted as one more use, with that
    /// use count. The entry stays queued.
    fn queued_plan(&self, key: &Key) -> Option<(Arc<PlanSlot<T>>, u64)> {
        let mut q = lock(&self.pending);
        let e = q.map.get_mut(key).filter(|e| !e.slot.is_poisoned())?;
        e.uses += 1;
        Some((Arc::clone(&e.slot), e.uses))
    }

    /// Take every queued entry whose key matches out of the queue.
    fn purge_queued(&self, matches: impl Fn(&Key) -> bool) -> Vec<(Key, Queued<T>)> {
        let mut q = lock(&self.pending);
        let keys: Vec<Key> = q.map.keys().filter(|k| matches(k)).copied().collect();
        let purged: Vec<(Key, Queued<T>)> = keys
            .into_iter()
            .filter_map(|k| q.map.remove(&k).map(|e| (k, e)))
            .collect();
        q.bytes -= purged.iter().map(|(_, e)| e.bytes).sum::<usize>();
        self.idle.notify_all();
        purged
    }

    /// Block until the queue is empty and the batch that emptied it has
    /// finished writing (or until no writer runs).
    fn flush_demotions(&self) {
        let mut q = lock(&self.pending);
        while !q.map.is_empty() && !q.writer_gone {
            q = wait(&self.idle, q);
        }
        drop(q);
        drop(lock(&self.writing));
    }

    /// The writer thread's body: drain batches until shutdown finds the
    /// queue empty.
    fn run_writer(&self, counters: &Counters) {
        let _exit = WriterExit(self);
        loop {
            {
                let mut q = lock(&self.pending);
                while q.map.is_empty() && !q.shutdown {
                    q = wait(&self.work, q);
                }
                if q.map.is_empty() {
                    return;
                }
            }
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::DemoteQueuedKill) {
                    // Simulated kill with demotions queued: they never
                    // reach disk, and what is on disk stays whole.
                    return;
                }
            }
            self.write_batch(counters);
        }
    }

    /// Write everything queued, one record each, skipping poisoned slots.
    fn write_batch(&self, counters: &Counters) {
        let _writing = lock(&self.writing);
        let batch: Vec<(Key, Arc<PlanSlot<T>>, u64)> = {
            let q = lock(&self.pending);
            q.map
                .iter()
                .map(|(k, e)| (*k, Arc::clone(&e.slot), e.uses))
                .collect()
        };
        for ((fp, j), slot, uses) in batch {
            let written = !slot.is_poisoned()
                && self
                    .store
                    .put(&fp, j, &slot.plan, slot.cost_ns, uses)
                    .is_ok();
            let mut q = lock(&self.pending);
            // Retirement, quarantine or a re-demotion may have taken the
            // key meanwhile; the accounting is theirs then.
            if q.map
                .get(&(fp, j))
                .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot))
            {
                if let Some(e) = q.map.remove(&(fp, j)) {
                    q.bytes -= e.bytes;
                    drop(q);
                    counters.settle_demotion(written, &e);
                }
            }
        }
        self.idle.notify_all();
    }
}

/// The two-tier plan cache; see the module docs.
pub(crate) struct PlanCache<T: AtomicScalar> {
    shards: Vec<Mutex<Shard<T>>>,
    /// Each shard's slice of the RAM byte budget.
    shard_budget: usize,
    /// Logical clock for LRU recency; bumped on every touch.
    tick: AtomicU64,
    /// The disk tier and its write-behind queue (`None` when `store_dir`
    /// is unset or the directory could not be opened — the cache then
    /// runs RAM-only).
    disk: Option<Arc<Disk<T>>>,
    /// The demotion writer draining `disk`'s queue.
    writer: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
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
        let shard_budget = (config.byte_budget / shards).max(1);
        let counters = Arc::new(Counters::default());
        let disk = store.map(|store| Arc::new(Disk::new(store, shard_budget)));
        let writer = disk.as_ref().and_then(|disk| {
            let (d, c) = (Arc::clone(disk), Arc::clone(&counters));
            let spawned = std::thread::Builder::new()
                .name("lf-demote".into())
                .spawn(move || d.run_writer(&c));
            if spawned.is_err() {
                // No writer: every demotion is written synchronously.
                lock(&disk.pending).writer_gone = true;
            }
            spawned.ok()
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
            shard_budget,
            tick: AtomicU64::new(0),
            disk,
            writer,
            counters,
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
    /// Every record is strictly re-validated by [`PlanStore::load`];
    /// rejections count in `warm_rejected` and the record is deleted. A
    /// fixed-CSR record is admitted, and charged, as its verdict.
    ///
    /// [`PlanStore::warm_loads`] reads, checks and decodes a wave of
    /// records at once on the pool; this loop settles and admits them
    /// strictly in warm order, so the budget cut, the kill site, the
    /// counters and the set of loaded records are those of a
    /// one-at-a-time loop. A record past the cut costs at most a wasted
    /// decode, never a use count or a deletion.
    fn warm_from_disk(&self, budget: usize) {
        let Some(store) = self.store() else { return };
        // Files the store already swept at open (unreadable header) are
        // rejections too — same contract: skipped, counted, not served.
        bump(&self.counters.warm_rejected, store.swept_corrupt() as u64);
        let mut loads = store.warm_loads();
        let mut loaded_bytes = 0usize;
        while loaded_bytes < budget {
            let Some(((fp, j), loaded)) = loads.next() else {
                break;
            };
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
            match store.settle(&fp, j, loaded) {
                Ok(Some((plan, meta))) => {
                    let plan = plan.into_verdict();
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

    /// The disk tier's record store, when one is open.
    fn store(&self) -> Option<&PlanStore<T>> {
        self.disk.as_ref().map(|d| &d.store)
    }

    /// Persist every cached RAM CELL plan to the disk tier. Returns the
    /// number of plans written (`Ok(0)` without a store). Queued
    /// demotions drain through the writer first, never here: writing
    /// them here would race it on the same keys. Poisoned slots are
    /// skipped: a quarantined plan must never resurrect through a
    /// snapshot. Fixed-CSR verdicts are skipped as `demote` skips them
    /// (see "Which plans demote").
    pub(crate) fn snapshot(&self) -> LfResult<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        disk.flush_demotions();
        // Clone the Arcs out under each shard lock, write behind.
        let mut plans = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (key, e) in &shard.map {
                if e.slot.plan.uses_cell() && !e.slot.is_poisoned() {
                    plans.push((*key, Arc::clone(&e.slot), e.uses));
                }
            }
        }
        for ((fp, j), slot, uses) in &plans {
            disk.store.put(fp, *j, &slot.plan, slot.cost_ns, *uses)?;
        }
        Ok(plans.len())
    }

    /// Block until every queued demotion has been written (or dropped,
    /// if its write failed). A no-op without a disk tier.
    pub(crate) fn flush_demotions(&self) {
        if let Some(disk) = &self.disk {
            disk.flush_demotions();
        }
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

    /// Answer a RAM miss from the disk tier: the write-behind queue
    /// first, then the store. A queued plan is the evicted `Arc` itself
    /// and stays queued, so the disk ends as a synchronous demotion
    /// would leave it. A validated record is decoded; a fixed-CSR
    /// record (from an older store) is admitted as its verdict, without
    /// the operand copy it was written with. Either way the
    /// plan is counted (`disk_hits`) and re-admitted into RAM
    /// (`promotions` — unless oversized for its shard slice). A record
    /// that fails strict validation is counted (the store deleted it)
    /// and the caller composes fresh.
    pub(crate) fn promote(&self, key: &Key) -> Option<Arc<PlanSlot<T>>> {
        let disk = self.disk.as_ref()?;
        if let Some((slot, uses)) = disk.queued_plan(key) {
            bump(&self.counters.disk_hits, 1);
            if self.admit(*key, Arc::clone(&slot), uses) {
                bump(&self.counters.promotions, 1);
            }
            return Some(slot);
        }
        match disk.store.get(&key.0, key.1) {
            Ok(Some((plan, meta))) => {
                bump(&self.counters.disk_hits, 1);
                let slot = PlanSlot::new(plan.into_verdict(), meta.cost_ns);
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
    /// under the lock, then — with no lock held — each is queued for the
    /// demotion writer (or, past the queue bound, written to the disk
    /// tier on this thread).
    ///
    /// No admitted plan holds a copy of a matrix its requests carry:
    /// fixed-CSR plans arrive as verdicts (`compose_guarded`, `promote`,
    /// `warm_from_disk`).
    pub(crate) fn admit(&self, key: Key, slot: Arc<PlanSlot<T>>, uses: u64) -> bool {
        debug_assert!(!slot.plan.degraded, "degraded plans are never cached");
        debug_assert!(
            slot.plan.uses_cell() || slot.plan.is_verdict(),
            "a cached fixed-CSR plan holds no operand"
        );
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
        for (key, entry) in victims {
            self.demote(key, entry);
        }
        true
    }

    /// Offer an evicted RAM entry to the disk tier (no shard lock is
    /// held): queue it for the writer, or write it here when the queue
    /// is full. A written record counts as a demotion — for a queued
    /// entry, once the writer finishes it; a failed write, no store, a
    /// poisoned plan or a fixed-CSR plan counts its bytes as dropped
    /// (`evicted_bytes`).
    ///
    /// Only CELL plans are worth a record: recomposing a fixed-CSR
    /// verdict (about 41 µs) is cheaper than reading a record back
    /// (350–760 µs), so it is dropped, as an engine without a store
    /// drops it (see "Which plans demote").
    fn demote(&self, key: Key, entry: Entry<T>) {
        let worth_a_record = entry.slot.plan.uses_cell() && !entry.slot.is_poisoned();
        let Some(disk) = self.disk.as_ref().filter(|_| worth_a_record) else {
            bump(&self.counters.evicted_bytes, entry.bytes as u64);
            return;
        };
        let queued = Queued {
            slot: entry.slot,
            uses: entry.uses,
            bytes: entry.bytes,
            evictions: 1,
            victim_bytes: entry.bytes as u64,
        };
        if let Err(q) = disk.enqueue_demotion(key, queued) {
            // Back-pressure: this thread writes the victim itself.
            let slot = &q.slot;
            let written = disk
                .store
                .put(&key.0, key.1, &slot.plan, slot.cost_ns, q.uses)
                .is_ok();
            self.counters.settle_demotion(written, &q);
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
        if let Some(disk) = &self.disk {
            for (_, q) in disk.purge_queued(|k| k == key) {
                self.counters.settle_demotion(false, &q);
            }
            let _writing = lock(&disk.writing);
            disk.store.remove(&key.0, key.1);
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

    /// Delete every queued demotion and disk record keyed by `fp`. A
    /// queued plan that never reached disk counts as retired too, and as
    /// dropped bytes.
    fn retire_disk(&self, fp: &Fingerprint) {
        let Some(disk) = &self.disk else { return };
        let purged = disk.purge_queued(|(f, _)| f == fp);
        let _writing = lock(&disk.writing);
        let queued_only = purged
            .iter()
            .filter(|((f, j), _)| !disk.store.holds(f, *j))
            .count();
        for (_, q) in &purged {
            self.counters.settle_demotion(false, q);
        }
        let removed = disk.store.remove_matrix(fp) + queued_only;
        bump(&self.counters.stale_evicted, removed as u64);
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
        s.store_bytes = self.store().map_or(0, |s| s.bytes() as usize);
    }
}

impl<T: AtomicScalar> Drop for PlanCache<T> {
    /// A clean shutdown drains the queue: the writer finishes every
    /// queued demotion, then exits and is joined.
    fn drop(&mut self) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        if let Some(disk) = &self.disk {
            lock(&disk.pending).shutdown = true;
            disk.work.notify_all();
        }
        let _ = writer.join();
    }
}

#[cfg(test)]
mod tests {
    use crate::lock;
    use crate::planner::FixedCellPlanner;
    use crate::{Fingerprint, ServeConfig, ServeEngine, ServeStats};
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
    use liteform_core::{PreparedPlan, PreprocessProfile};
    use std::path::{Path, PathBuf};
    use std::sync::{mpsc, Arc};
    use std::thread::JoinHandle;
    use std::time::Duration;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
    }

    fn engine() -> ServeEngine<f64, FixedCellPlanner> {
        ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default())
    }

    /// A fresh scratch store directory for one test.
    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lf-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A store-backed engine whose single shard holds about 1.5 plans:
    /// every new matrix evicts the previous one, and the demotion queue
    /// (bounded by the same slice) holds one plan.
    fn spilling_engine(dir: &Path) -> ServeEngine<f64, FixedCellPlanner> {
        let probe = engine();
        let mut rng = Pcg32::seed_from_u64(93);
        probe
            .serve(&matrix(10), &DenseMatrix::random(128, 8, &mut rng))
            .unwrap();
        let plan_bytes = probe.stats().cached_bytes;
        ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                shards: 1,
                byte_budget: plan_bytes + plan_bytes / 2,
                store_dir: Some(dir.to_string_lossy().into_owned()),
                ..ServeConfig::default()
            },
        )
    }

    /// Hold the demotion writer's batch lock on a helper thread until the
    /// returned sender fires: queued demotions stay queued meanwhile.
    fn stall_writer(e: &ServeEngine<f64, FixedCellPlanner>) -> (mpsc::Sender<()>, JoinHandle<()>) {
        let disk = Arc::clone(e.cache.disk.as_ref().expect("a store-backed engine"));
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            let _writing = lock(&disk.writing);
            held_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        held_rx.recv().unwrap();
        (release_tx, helper)
    }

    /// Release a stalled writer after `ms` milliseconds, from a thread.
    /// The assertions after a blocking call hold whenever the release
    /// lands; the delay only makes it likely the call was blocked, so a
    /// call that skipped the drain would fail them.
    fn release_later(release: mpsc::Sender<()>, ms: u64) -> JoinHandle<()> {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            let _ = release.send(());
        })
    }

    fn queued(e: &ServeEngine<f64, FixedCellPlanner>) -> usize {
        let disk = e.cache.disk.as_ref().expect("a store-backed engine");
        let q = lock(&disk.pending);
        assert!(q.bytes <= disk.bound, "queue over its bound");
        q.map.len()
    }

    fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
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

    #[test]
    fn queued_plan_promotes_as_the_evicted_arc_bitwise() {
        let dir = store_dir("queued-promote");
        let e = spilling_engine(&dir);
        let mut rng = Pcg32::seed_from_u64(87);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (m1, m2) = (matrix(60), matrix(61));
        assert!(!e.serve(&m1, &b).unwrap().hit);
        let key = (Fingerprint::of_csr(&m1), 8);
        let evicted = e.cache.lookup(&key).expect("m1 is cached");

        let (release, helper) = stall_writer(&e);
        assert!(!e.serve(&m2, &b).unwrap().hit);
        assert!(e.cache.lookup(&key).is_none(), "m1 left RAM");
        assert_eq!(queued(&e), 1);
        let s = e.stats();
        assert_eq!(
            (s.evictions, s.demotions, s.store_bytes),
            (1, 0, 0),
            "{s:?}"
        );

        // The queued plan answers the miss: the very Arc that was
        // evicted, served as a disk hit, bitwise the reference.
        let out = e.serve(&m1, &b).unwrap();
        assert!(out.hit && out.compose.is_none(), "promoted, not recomposed");
        assert_eq!(bits(&out.result), bits(&m1.spmm_reference(&b).unwrap()));
        let back = e.cache.lookup(&key).expect("promoted into RAM");
        assert!(Arc::ptr_eq(&back, &evicted), "not the queued Arc");
        let s = e.stats();
        assert_eq!((s.disk_hits, s.promotions), (1, 1), "{s:?}");
        assert_eq!(queued(&e), 1, "a promoted plan stays queued");

        release.send(()).unwrap();
        helper.join().unwrap();
        e.flush_demotions();
        assert_eq!(queued(&e), 0);
        let s = e.stats();
        assert_eq!(s.demotions, s.evictions, "{s:?}");
        assert_eq!(s.evicted_bytes, 0, "{s:?}");
        assert_ledger_balances(&s);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_queue_writes_victims_on_the_requesting_thread() {
        let dir = store_dir("backpressure");
        let e = spilling_engine(&dir);
        let mut rng = Pcg32::seed_from_u64(86);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (release, helper) = stall_writer(&e);
        for seed in 70..74u64 {
            assert!(!e.serve(&matrix(seed), &b).unwrap().hit);
        }
        // Three evictions: the first fills the queue, the other two are
        // written synchronously — demoted already, with the writer stalled.
        assert_eq!(queued(&e), 1);
        let s = e.stats();
        assert_eq!((s.evictions, s.demotions), (3, 2), "{s:?}");
        release.send(()).unwrap();
        helper.join().unwrap();
        e.flush_demotions();
        let s = e.stats();
        assert_eq!(s.demotions, s.evictions, "no demotion dropped: {s:?}");
        assert_eq!(s.evicted_bytes, 0, "{s:?}");
        assert_eq!(e.cache.store().map(|st| st.records()), Some(3));
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_drains_the_queue_first() {
        let dir = store_dir("snapshot-drains");
        let e = spilling_engine(&dir);
        let mut rng = Pcg32::seed_from_u64(85);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (release, helper) = stall_writer(&e);
        e.serve(&matrix(80), &b).unwrap();
        e.serve(&matrix(81), &b).unwrap();
        assert_eq!(queued(&e), 1);
        let releaser = release_later(release, 50);
        // Blocks until the writer, released, drains the queued plan; then
        // writes the one RAM plan itself.
        assert_eq!(e.snapshot().unwrap(), 1);
        releaser.join().unwrap();
        helper.join().unwrap();
        assert_eq!(queued(&e), 0);
        let s = e.stats();
        assert_eq!((s.evictions, s.demotions), (1, 1), "{s:?}");
        assert_eq!(e.cache.store().map(|st| st.records()), Some(2));
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fixed_csr_record_promotes_as_a_verdict() {
        // A record an older engine wrote: a fixed-CSR plan holding its
        // operand. Promoted, it is admitted without the copy.
        let dir = store_dir("csr-promote");
        let e = spilling_engine(&dir);
        let m = matrix(100);
        let key = (Fingerprint::of_csr(&m), 8);
        let plan = PreparedPlan::from_csr(m.clone(), PreprocessProfile::default()).with_tuned_j(8);
        let store = e.cache.store().expect("a store-backed engine");
        store.put(&key.0, key.1, &plan, 1_000, 0).unwrap();
        let mut rng = Pcg32::seed_from_u64(83);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let out = e.serve(&m, &b).unwrap();
        assert!(out.hit && out.compose.is_none(), "a disk hit");
        assert_eq!(bits(&out.result), bits(&m.spmm_reference(&b).unwrap()));
        let s = e.stats();
        assert_eq!((s.disk_hits, s.promotions), (1, 1), "{s:?}");
        let slot = e.cache.lookup(&key).expect("promoted into RAM");
        assert!(slot.plan.is_verdict(), "admitted without its operand");
        assert_eq!(s.cached_bytes, slot.plan.format_bytes(), "{s:?}");
        assert!(s.cached_bytes < plan.format_bytes() / 100, "{s:?}");
        assert_ledger_balances(&s);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_drains_the_queue_and_every_demoted_plan_warms() {
        let dir = store_dir("drop-drains");
        let e = spilling_engine(&dir);
        let mut rng = Pcg32::seed_from_u64(84);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (release, helper) = stall_writer(&e);
        for seed in 90..93u64 {
            e.serve(&matrix(seed), &b).unwrap();
        }
        assert_eq!(queued(&e), 1);
        let releaser = release_later(release, 50);
        drop(e); // joins the writer once it drained the queue
        releaser.join().unwrap();
        helper.join().unwrap();

        let reopened = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                store_dir: Some(dir.to_string_lossy().into_owned()),
                ..ServeConfig::default()
            },
        );
        let s = reopened.stats();
        assert_eq!(s.warm_loaded, 2, "both demoted plans warm: {s:?}");
        assert_eq!(s.warm_rejected, 0, "{s:?}");
        for seed in [90u64, 91] {
            let a = matrix(seed);
            let out = reopened.serve(&a, &b).unwrap();
            assert!(out.hit, "seed {seed}: a demoted plan must warm");
            assert_eq!(bits(&out.result), bits(&a.spmm_reference(&b).unwrap()));
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
