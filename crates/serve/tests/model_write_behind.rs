//! Model-checked verification of the plan cache's write-behind demotion
//! protocol (`cache.rs`, "Write-behind demotion").
//!
//! An evicted plan goes into a byte-bounded pending map that one writer
//! thread drains to disk; a RAM miss may promote it straight from the
//! map; retiring a key purges the map and deletes the key's record. The
//! protocol promises (DESIGN.md §13):
//!
//! * after retire returns, no record for the retired key exists — not
//!   even one whose write was in flight when retire started;
//! * promotion from the queue returns the very `Arc` that was enqueued;
//! * the pending bytes never exceed the bound: an enqueue that would
//!   cross it writes its victim synchronously instead.
//!
//! This test re-states the protocol over `lf-check`'s instrumented
//! primitives and explores every bounded interleaving of four threads —
//! enqueue, promote, the writer, and retire — proving the invariants the
//! stress suite can only sample. The seeded broken variant (retire that
//! deletes the record without waiting out the writer's in-flight batch)
//! is caught: the checker finds the schedule where the writer publishes
//! the stale record after retire returned.

use lf_check::sync::thread::spawn_named;
use lf_check::sync::Mutex;
use lf_check::{model, Model};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// A stand-in for `PlanSlot`: identity-distinguishable via `Arc`.
type Plan = Arc<u64>;

/// Bytes charged per queued plan (all plans equal-sized in the model).
const PLAN_BYTES: usize = 100;
/// The queue bound: two plans.
const BOUND: usize = 2 * PLAN_BYTES;
/// The key retire targets; it starts queued.
const RETIRED: u64 = 1;

struct Queue {
    map: BTreeMap<u64, Plan>,
    bytes: usize,
}

struct Disk {
    pending: Mutex<Queue>,
    /// Held by the writer for a whole batch.
    writing: Mutex<()>,
    /// The record files.
    records: Mutex<BTreeMap<u64, Plan>>,
}

impl Disk {
    fn new() -> Self {
        Disk {
            pending: Mutex::new(Queue {
                map: BTreeMap::new(),
                bytes: 0,
            }),
            writing: Mutex::new(()),
            records: Mutex::new(BTreeMap::new()),
        }
    }

    fn put(&self, key: u64, plan: Plan) {
        self.records.lock().unwrap().insert(key, plan);
    }

    /// `Disk::enqueue_demotion` plus the back-pressure write in
    /// `PlanCache::demote`.
    fn demote(&self, key: u64, plan: Plan) {
        let mut q = self.pending.lock().unwrap();
        if q.map.remove(&key).is_some() {
            q.bytes -= PLAN_BYTES;
        }
        if q.bytes + PLAN_BYTES > BOUND {
            drop(q);
            self.put(key, plan);
            return;
        }
        q.map.insert(key, plan);
        q.bytes += PLAN_BYTES;
        assert!(q.bytes <= BOUND, "pending bytes over the bound");
    }

    /// `PlanCache::promote`: the queue first, then the disk.
    fn promote(&self, key: u64) -> Option<Plan> {
        if let Some(plan) = self.pending.lock().unwrap().map.get(&key) {
            return Some(Arc::clone(plan));
        }
        self.records.lock().unwrap().get(&key).cloned()
    }

    /// `Disk::write_batch`: write everything queued, removing each key
    /// only after its write and only if the entry is still the same Arc.
    fn write_batch(&self) {
        let _writing = self.writing.lock().unwrap();
        let batch: Vec<(u64, Plan)> = {
            let q = self.pending.lock().unwrap();
            q.map.iter().map(|(k, p)| (*k, Arc::clone(p))).collect()
        };
        for (key, plan) in batch {
            self.put(key, Arc::clone(&plan));
            let mut q = self.pending.lock().unwrap();
            if q.map.get(&key).is_some_and(|p| Arc::ptr_eq(p, &plan)) {
                q.map.remove(&key);
                q.bytes -= PLAN_BYTES;
            }
        }
    }

    /// `PlanCache::retire_disk`: purge the queue, wait out the writer's
    /// in-flight batch, then delete the record. `wait_for_writer: false`
    /// is the seeded bug.
    fn retire(&self, key: u64, wait_for_writer: bool) {
        {
            let mut q = self.pending.lock().unwrap();
            if q.map.remove(&key).is_some() {
                q.bytes -= PLAN_BYTES;
            }
        }
        let _writing = wait_for_writer.then(|| self.writing.lock().unwrap());
        self.records.lock().unwrap().remove(&key);
    }

    fn on_disk(&self, key: u64) -> bool {
        self.records.lock().unwrap().contains_key(&key)
    }
}

/// One run of the four-thread scenario: `RETIRED` starts queued; an
/// enqueuer demotes two more keys (the second past the bound unless the
/// writer drained), a promoter asks for `RETIRED`, the writer drains one
/// batch, and the main thread retires `RETIRED`. Then a final drain (a
/// clean drop) and the invariants.
fn scenario(wait_for_writer: bool) {
    let disk = Arc::new(Disk::new());
    let retired: Plan = Arc::new(RETIRED);
    disk.demote(RETIRED, Arc::clone(&retired));

    let writer = {
        let disk = Arc::clone(&disk);
        spawn_named("writer", move || disk.write_batch()).expect("spawn model thread")
    };
    let enqueuer = {
        let disk = Arc::clone(&disk);
        spawn_named("enqueue", move || {
            disk.demote(2, Arc::new(2));
            disk.demote(3, Arc::new(3));
        })
        .expect("spawn model thread")
    };
    let promoter = {
        let disk = Arc::clone(&disk);
        spawn_named("promote", move || disk.promote(RETIRED)).expect("spawn model thread")
    };

    disk.retire(RETIRED, wait_for_writer);
    assert!(
        !disk.on_disk(RETIRED),
        "stale record on disk right after retire returned"
    );
    writer.join().unwrap();
    enqueuer.join().unwrap();
    let promoted = promoter.join().unwrap();
    // A promotion either lost the race to retire or got the enqueued Arc.
    if let Some(plan) = promoted {
        assert!(
            Arc::ptr_eq(&plan, &retired),
            "promotion returned a plan other than the enqueued one"
        );
    }
    disk.write_batch();
    assert!(
        !disk.on_disk(RETIRED),
        "stale record landed after retire returned"
    );
    for key in [2, 3] {
        assert!(disk.on_disk(key), "demotion of key {key} was dropped");
    }
    let q = disk.pending.lock().unwrap();
    assert!(q.map.is_empty() && q.bytes == 0, "drained queue not empty");
}

#[test]
fn write_behind_protocol_holds_in_every_interleaving() {
    let report = model(|| scenario(true));
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn retire_without_waiting_for_the_writer_is_caught() {
    let checker = Model {
        wedge_timeout: Duration::from_secs(2),
        ..Model::default()
    };
    let result = catch_unwind(AssertUnwindSafe(move || checker.check(|| scenario(false))));
    let msg = match result {
        Ok(_) => panic!("the checker must catch a retire that skips the in-flight write"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(msg.contains("stale record"), "unexpected failure: {msg}");
}
