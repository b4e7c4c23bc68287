//! Same-fingerprint request coalescing: the admission-window machinery
//! behind [`crate::ServeConfig::batch_window_us`] (DESIGN.md §11).
//!
//! The first admitted request for a fingerprint becomes the **leader**:
//! it opens a [`BatchGroup`] on the board and parks for the admission
//! window while concurrent same-fingerprint requests join by depositing
//! their dense operand, their cancel token, and a [`JoinSlot`] to wait
//! on. When the window elapses — or the fused-width cap is reached,
//! whichever comes first — the leader closes the group, runs **one**
//! fused SpMM over its own operand and the joiners', and resolves every
//! joiner's slot individually: each member keeps its own deadline
//! verdict, its own ledger class, and (after a fused panic) its own
//! reference rescue. The engine half of the protocol lives in
//! `engine.rs`: `serve_coalesced` admits and closes, and the closed
//! group runs through `serve_group`, the same code that serves a solo
//! request as a group of one. This module owns the synchronization.
//!
//! Invariants:
//!
//! * **Lock order is board → group state**, in both the join and the
//!   close path, so the two never deadlock.
//! * A group is removed from the board and emptied **under the board
//!   lock** ([`BatchBoard::close`]); joiners reach a group only through
//!   the board and join while still holding the board lock, so no
//!   member can ever be added to a closed group (and none is ever
//!   dropped unresolved by a racing close).
//! * The group holds only its **joiners**: the leader keeps its own
//!   operand and token and gets its result as a return value, so it
//!   needs no slot.
//! * Every closed joiner is eventually resolved: the normal path
//!   resolves each slot explicitly, and [`ResolveGuard`] backstops a
//!   panicking leader by dissolving the stragglers, which then run as
//!   groups of one.

use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::stats::ServeOutcome;
use lf_sim::cancel::CancelToken;
use lf_sparse::{DenseMatrix, Scalar};
use liteform_core::LfResult;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How a group settled one member's request — a solo request's group
/// of one included: its outcome (`serve_wall_s` is stamped at publish),
/// or the typed error it failed with.
pub(crate) type Resolution<T> = LfResult<ServeOutcome<T>>;

// A slot is allocated once per joiner and holds at most one outcome:
// boxing the large variant would only add an allocation.
#[allow(clippy::large_enum_variant)]
enum SlotState<T> {
    Waiting,
    /// Settled by the leader: `None` when the group dissolved without
    /// serving this member (a typed kernel error, a failed compose, or
    /// the leader unwound).
    Settled(Option<Resolution<T>>),
    /// The waiter gave up (backstop timeout) or already collected the
    /// settlement; later settlements are dropped.
    Abandoned,
}

/// One member's rendezvous cell: the leader deposits the member's
/// [`Resolution`], the member's thread blocks on it.
pub(crate) struct JoinSlot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T> JoinSlot<T> {
    fn new() -> Arc<Self> {
        Arc::new(JoinSlot {
            state: Mutex::new(SlotState::Waiting),
            ready: Condvar::new(),
        })
    }

    /// Deliver the member's resolution. First write wins; an abandoned
    /// slot swallows it silently.
    pub(crate) fn resolve(&self, r: Resolution<T>) {
        self.settle(Some(r));
    }

    /// Release the member unserved: it runs as a group of one instead.
    pub(crate) fn dissolve(&self) {
        self.settle(None);
    }

    fn settle(&self, r: Option<Resolution<T>>) {
        let mut st = lock(&self.state);
        if matches!(*st, SlotState::Waiting) {
            *st = SlotState::Settled(r);
            self.ready.notify_all();
        }
    }

    /// Block until settled; `None` means the group dissolved. `backstop`
    /// is a liveness net only — leaders always settle their members (a
    /// [`ResolveGuard`] covers even a panicking leader); should it ever
    /// fire, the member abandons the slot and runs as a group of one.
    pub(crate) fn wait(&self, backstop: Duration) -> Option<Resolution<T>> {
        let deadline = Instant::now() + backstop;
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Abandoned) {
                SlotState::Settled(r) => return r,
                SlotState::Abandoned => return None,
                SlotState::Waiting => *st = SlotState::Waiting,
            }
            let now = Instant::now();
            if now >= deadline {
                *st = SlotState::Abandoned;
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }
}

/// One joiner: its (cloned) dense operand, its cancel token, and the
/// slot its thread waits on.
pub(crate) struct Member<T> {
    pub(crate) b: DenseMatrix<T>,
    pub(crate) token: Option<CancelToken>,
    pub(crate) slot: Arc<JoinSlot<T>>,
}

struct GroupState<T> {
    joiners: Vec<Member<T>>,
    /// Sum of member widths, the leader's included, capped by the
    /// engine's `max_batch_j`.
    total_j: usize,
}

/// One open admission window for a fingerprint.
pub(crate) struct BatchGroup<T> {
    state: Mutex<GroupState<T>>,
    /// Signalled when the fused-width cap is reached, waking the leader
    /// before the window elapses.
    full: Condvar,
}

impl<T> BatchGroup<T> {
    /// Park the leader until the admission window elapses or the fused
    /// width cap is reached, whichever comes first.
    pub(crate) fn await_window(&self, window: Duration, max_j: usize) {
        let deadline = Instant::now() + window;
        let mut st = lock(&self.state);
        while st.total_j < max_j {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .full
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// How the board admitted a request into the coalescer.
pub(crate) enum Admission<T> {
    /// This request opened the group — to park on, close, and
    /// execute.
    Leader(Arc<BatchGroup<T>>),
    /// This request joined an open group; wait on the slot.
    Joined(Arc<JoinSlot<T>>),
    /// The open group had no room under the width cap: run as a group
    /// of one now.
    Full,
}

/// The engine-wide map of open admission windows, one per fingerprint.
pub(crate) struct BatchBoard<T> {
    open: Mutex<HashMap<Fingerprint, Arc<BatchGroup<T>>>>,
}

impl<T: Scalar> BatchBoard<T> {
    pub(crate) fn new() -> Self {
        BatchBoard {
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Join the open group for `fp`, or open one as its leader. The
    /// group's width never exceeds `max_j`: a request that would push it
    /// past the cap is turned away ([`Admission::Full`]).
    pub(crate) fn admit(
        &self,
        fp: &Fingerprint,
        b: &DenseMatrix<T>,
        token: Option<&CancelToken>,
        max_j: usize,
    ) -> Admission<T> {
        let mut open = lock(&self.open);
        match open.get(fp) {
            Some(group) => {
                let mut st = lock(&group.state);
                if st.total_j + b.cols() > max_j {
                    return Admission::Full;
                }
                let slot = JoinSlot::new();
                st.total_j += b.cols();
                st.joiners.push(Member {
                    b: b.clone(),
                    token: token.cloned(),
                    slot: Arc::clone(&slot),
                });
                if st.total_j >= max_j {
                    group.full.notify_all();
                }
                Admission::Joined(slot)
            }
            None => {
                let group = Arc::new(BatchGroup {
                    state: Mutex::new(GroupState {
                        joiners: Vec::new(),
                        total_j: b.cols(),
                    }),
                    full: Condvar::new(),
                });
                open.insert(*fp, Arc::clone(&group));
                Admission::Leader(group)
            }
        }
    }

    /// Close a group: atomically (under the board lock) unhook it from
    /// the board and take its joiners. After this returns no request can
    /// join it — joiners only reach a group through the board, and they
    /// join while still holding the board lock.
    pub(crate) fn close(&self, fp: &Fingerprint, group: &Arc<BatchGroup<T>>) -> Vec<Member<T>> {
        let mut open = lock(&self.open);
        if open.get(fp).is_some_and(|g| Arc::ptr_eq(g, group)) {
            open.remove(fp);
        }
        let mut st = lock(&group.state);
        st.total_j = 0;
        std::mem::take(&mut st.joiners)
    }
}

/// Drop guard over a closed group's joiners: any slot still unsettled
/// when the guard drops is dissolved, so members can never hang on a
/// leader that unwound mid-batch.
pub(crate) struct ResolveGuard<'a, T> {
    members: &'a [Member<T>],
}

impl<'a, T> ResolveGuard<'a, T> {
    pub(crate) fn new(members: &'a [Member<T>]) -> Self {
        ResolveGuard { members }
    }
}

impl<T> Drop for ResolveGuard<'_, T> {
    fn drop(&mut self) {
        for m in self.members {
            m.slot.dissolve();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteform_core::LfError;

    fn fp(tag: u64) -> Fingerprint {
        let csr = lf_sparse::CsrMatrix::<f64>::from_raw_unchecked(
            1,
            2,
            vec![0, 1],
            vec![(tag % 2) as lf_sparse::Index],
            vec![tag as f64],
        );
        Fingerprint::of_csr(&csr)
    }

    fn b(cols: usize) -> DenseMatrix<f64> {
        DenseMatrix::zeros(4, cols)
    }

    #[test]
    fn leader_then_joiners_then_close_takes_all_members_in_order() {
        let board = BatchBoard::<f64>::new();
        let f = fp(1);
        let Admission::Leader(group) = board.admit(&f, &b(8), None, 64) else {
            panic!("first arrival must lead");
        };
        assert!(matches!(
            board.admit(&f, &b(3), None, 64),
            Admission::Joined(_)
        ));
        assert!(matches!(
            board.admit(&f, &b(5), None, 64),
            Admission::Joined(_)
        ));
        let joiners = board.close(&f, &group);
        let widths: Vec<usize> = joiners.iter().map(|m| m.b.cols()).collect();
        assert_eq!(widths, [3, 5], "only the joiners, in arrival order");
        // After close the board is empty: the next arrival leads anew.
        assert!(matches!(
            board.admit(&f, &b(8), None, 64),
            Admission::Leader(_)
        ));
    }

    #[test]
    fn width_cap_turns_joiners_away_and_wakes_the_leader_early() {
        let board = BatchBoard::<f64>::new();
        let f = fp(2);
        let Admission::Leader(group) = board.admit(&f, &b(8), None, 16) else {
            panic!("first arrival must lead");
        };
        assert!(matches!(
            board.admit(&f, &b(8), None, 16),
            Admission::Joined(_)
        ));
        // 16/16 columns used: no room for even a 1-wide member.
        assert!(matches!(board.admit(&f, &b(1), None, 16), Admission::Full));
        // Zero-width members always fit.
        assert!(matches!(
            board.admit(&f, &b(0), None, 16),
            Admission::Joined(_)
        ));
        // The cap was reached, so the window returns immediately even
        // though it is nominally very long.
        let t0 = Instant::now();
        group.await_window(Duration::from_secs(10), 16);
        assert!(t0.elapsed() < Duration::from_secs(5), "cap must short-cut");
        assert_eq!(board.close(&f, &group).len(), 2);
    }

    #[test]
    fn distinct_fingerprints_never_share_a_group() {
        let board = BatchBoard::<f64>::new();
        assert!(matches!(
            board.admit(&fp(3), &b(4), None, 64),
            Admission::Leader(_)
        ));
        assert!(matches!(
            board.admit(&fp(4), &b(4), None, 64),
            Admission::Leader(_)
        ));
    }

    #[test]
    fn slot_resolve_then_wait_returns_and_first_write_wins() {
        let slot = JoinSlot::<f64>::new();
        slot.resolve(Err(LfError::DeadlineExceeded { stage: "execute" }));
        slot.dissolve(); // dropped: first write wins
        match slot.wait(Duration::from_secs(1)) {
            Some(Err(LfError::DeadlineExceeded { stage })) => {
                assert_eq!(stage, "execute")
            }
            _ => panic!("first resolution must win"),
        }
    }

    #[test]
    fn wait_backstop_abandons_and_falls_back_to_solo() {
        let slot = JoinSlot::<f64>::new();
        let t0 = Instant::now();
        assert!(slot.wait(Duration::from_millis(20)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // A settlement arriving after abandonment is swallowed, not
        // delivered to a second wait.
        slot.dissolve();
        assert!(slot.wait(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn resolve_guard_dissolves_unsettled_members() {
        let members: Vec<Member<f64>> = (0..3)
            .map(|_| Member {
                b: b(2),
                token: None,
                slot: JoinSlot::new(),
            })
            .collect();
        members[1].slot.resolve(Ok(ServeOutcome {
            result: b(2),
            hit: true,
            degraded: false,
            fingerprint: fp(5),
            compose: None,
            serve_wall_s: 0.0,
            batched: true,
        }));
        drop(ResolveGuard::new(&members));
        assert!(members[0].slot.wait(Duration::from_secs(1)).is_none());
        assert!(matches!(
            members[1].slot.wait(Duration::from_secs(1)),
            Some(Ok(_))
        ));
        assert!(members[2].slot.wait(Duration::from_secs(1)).is_none());
    }
}
