//! Model-checked verification of the poisoned-plan quarantine protocol.
//!
//! When a cached plan panics mid-execution, `ServeEngine` poisons its
//! slot and evicts it — and the protocol promises (`PlanCache::quarantine`
//! in cache.rs): the eviction happens **exactly once** no matter how
//! many concurrent requests were running the plan, every holder comes
//! back with a typed error or a degraded result (never a hang), a
//! poisoned slot is never served again, and a *fresh* plan re-admitted
//! under the same key is never collateral damage of a stale quarantine
//! (the `Arc::ptr_eq` identity guard).
//!
//! This test re-states the protocol over `lf-check`'s instrumented
//! primitives and explores every bounded interleaving:
//!
//! * two concurrent holders of a panicking plan race the quarantine —
//!   in every schedule the eviction count is exactly 1, the byte
//!   accounting matches the map, both holders return, and the key
//!   recomposes cleanly afterwards;
//! * a quarantine racing a same-key capacity-eviction + re-admission
//!   never evicts the innocent replacement (the identity guard);
//! * the seeded broken variant — quarantine *without* the identity
//!   guard, the tempting "just remove the key" shortcut — is caught:
//!   there is a schedule where the stale quarantine evicts the fresh
//!   plan.

use lf_check::sync::thread::spawn_named;
use lf_check::sync::Mutex;
use lf_check::{model, Model};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Bytes charged per cached plan (all plans equal-sized in the model).
const PLAN_BYTES: usize = 100;

/// A stand-in for the engine's `PlanSlot`: `Arc` identity plus poison
/// flag. The flag is a plain `std` atomic (unmodeled): the checker
/// branches on the shard lock, which is where the protocol's races live.
struct Slot {
    poisoned: AtomicBool,
}

struct State {
    map: HashMap<u64, Arc<Slot>>,
    bytes: usize,
}

struct Cache {
    state: Mutex<State>,
    quarantined: AtomicUsize,
}

impl Cache {
    fn new() -> Self {
        Cache {
            state: Mutex::new(State {
                map: HashMap::new(),
                bytes: 0,
            }),
            quarantined: AtomicUsize::new(0),
        }
    }

    /// Compose a fresh plan and admit it (the model's miss path).
    // The two-step contains_key + insert deliberately mirrors
    // `ServeEngine::admit`'s shape — first insert wins.
    #[allow(clippy::map_entry)]
    fn compose_and_admit(&self, key: u64) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            poisoned: AtomicBool::new(false),
        });
        let mut st = self.state.lock().unwrap();
        if !st.map.contains_key(&key) {
            st.map.insert(key, Arc::clone(&slot));
            st.bytes += PLAN_BYTES;
        }
        slot
    }

    /// The engine's lookup: poisoned entries are swept, never served.
    fn lookup(&self, key: u64) -> Option<Arc<Slot>> {
        let mut st = self.state.lock().unwrap();
        let slot = Arc::clone(st.map.get(&key)?);
        if slot.poisoned.load(Relaxed) {
            st.map.remove(&key);
            st.bytes -= PLAN_BYTES;
            return None;
        }
        Some(slot)
    }

    /// Capacity eviction of `key` (LRU stand-in).
    fn evict(&self, key: u64) {
        let mut st = self.state.lock().unwrap();
        if st.map.remove(&key).is_some() {
            st.bytes -= PLAN_BYTES;
        }
    }

    /// `ServeEngine::quarantine`: the poison swap elects exactly one
    /// winner; the identity guard keeps a same-key replacement alive.
    fn quarantine(&self, key: u64, slot: &Arc<Slot>) {
        if slot.poisoned.swap(true, Relaxed) {
            return;
        }
        self.quarantined.fetch_add(1, Relaxed);
        let mut st = self.state.lock().unwrap();
        let ours = st.map.get(&key).is_some_and(|e| Arc::ptr_eq(e, slot));
        if ours {
            st.map.remove(&key);
            st.bytes -= PLAN_BYTES;
        }
    }

    /// Seeded bug: the quarantine without its identity guard.
    fn quarantine_unguarded(&self, key: u64, slot: &Arc<Slot>) {
        if slot.poisoned.swap(true, Relaxed) {
            return;
        }
        self.quarantined.fetch_add(1, Relaxed);
        let mut st = self.state.lock().unwrap();
        if st.map.remove(&key).is_some() {
            st.bytes -= PLAN_BYTES;
        }
    }

    fn check_accounting(&self) {
        let st = self.state.lock().unwrap();
        assert_eq!(
            st.bytes,
            st.map.len() * PLAN_BYTES,
            "cache byte accounting diverged from contents"
        );
    }
}

/// Two concurrent requests are mid-execution on the same cached plan
/// when it panics for both: each runs the quarantine path. In every
/// schedule the plan is evicted exactly once, both callers return (a
/// hang would trip the model's wedge detector), the poisoned slot is
/// never served again, and the key recomposes cleanly.
#[test]
fn concurrent_panicking_hitters_quarantine_exactly_once() {
    let report = model(|| {
        let cache = Arc::new(Cache::new());
        let slot = cache.compose_and_admit(42);
        // Both requests already hold the plan (they hit, then the plan
        // panicked under them). Each reports the failure concurrently —
        // in the engine this is the path that hands back the typed
        // error / degraded result.
        let t = {
            let (cache, slot) = (Arc::clone(&cache), Arc::clone(&slot));
            spawn_named("hitter-b", move || cache.quarantine(42, &slot))
                .expect("spawn model thread")
        };
        cache.quarantine(42, &slot);
        t.join().unwrap();

        assert_eq!(
            cache.quarantined.load(Relaxed),
            1,
            "quarantine must be exactly-once across all holders"
        );
        cache.check_accounting();
        assert!(
            cache.lookup(42).is_none(),
            "a poisoned plan must never be served again"
        );
        // The key itself is not tainted: a later miss recomposes.
        let fresh = cache.compose_and_admit(42);
        assert!(!fresh.poisoned.load(Relaxed));
        let served = cache.lookup(42).expect("fresh plan must serve");
        assert!(Arc::ptr_eq(&served, &fresh));
        cache.check_accounting();
    });
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// A quarantine racing a capacity-eviction + same-key re-admission: the
/// identity guard must keep the innocent replacement plan cached in
/// every schedule.
#[test]
fn stale_quarantine_never_evicts_a_replacement_plan() {
    let report = model(|| {
        let cache = Arc::new(Cache::new());
        let old = cache.compose_and_admit(7);
        let t = {
            let (cache, old) = (Arc::clone(&cache), Arc::clone(&old));
            spawn_named("panicker", move || cache.quarantine(7, &old)).expect("spawn model thread")
        };
        // Concurrently: the old entry churns out under capacity pressure
        // and a fresh plan for the same key is admitted.
        cache.evict(7);
        let fresh = cache.compose_and_admit(7);
        t.join().unwrap();

        let st = cache.state.lock().unwrap();
        let cached = st.map.get(&7);
        assert!(
            cached.is_some_and(|s| Arc::ptr_eq(s, &fresh)),
            "stale quarantine evicted an innocent replacement plan"
        );
        drop(st);
        cache.check_accounting();
    });
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// Drop the identity guard and the checker must find the schedule where
/// the stale quarantine destroys the replacement plan.
#[test]
fn unguarded_quarantine_is_caught() {
    let checker = Model {
        wedge_timeout: Duration::from_secs(2),
        ..Model::default()
    };
    let result = catch_unwind(AssertUnwindSafe(move || {
        checker.check(|| {
            let cache = Arc::new(Cache::new());
            let old = cache.compose_and_admit(7);
            let t = {
                let (cache, old) = (Arc::clone(&cache), Arc::clone(&old));
                spawn_named("panicker", move || cache.quarantine_unguarded(7, &old))
                    .expect("spawn model thread")
            };
            cache.evict(7);
            let fresh = cache.compose_and_admit(7);
            t.join().unwrap();
            let st = cache.state.lock().unwrap();
            assert!(
                st.map.get(&7).is_some_and(|s| Arc::ptr_eq(s, &fresh)),
                "stale quarantine evicted an innocent replacement plan"
            );
        });
    }));
    let msg = match result {
        Ok(()) => panic!("the checker must catch the unguarded quarantine"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(msg.contains("innocent"), "unexpected failure: {msg}");
}
