//! Registered matrices: [`MatrixHandle`] validates and fingerprints a
//! payload once, then carries the pair across requests and through
//! edge-delta updates (DESIGN.md §15).

use crate::fingerprint::Fingerprint;
use lf_cost::TileFeatures;
use lf_sparse::{CsrMatrix, EdgeUpdate, Scalar};
use liteform_core::{LfError, LfResult};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The mutable registration behind a [`MatrixHandle`]: the current
/// payload, its epoch-stamped fingerprint, and the fingerprints of
/// retired epochs whose cached plans may still linger in some tier.
#[derive(Debug)]
struct HandleState<T> {
    csr: Arc<CsrMatrix<T>>,
    fingerprint: Fingerprint,
    /// Fingerprints retired by [`MatrixHandle::apply_updates`], kept
    /// until a sweep confirms both cache tiers hold nothing under them.
    /// Persisting the list (rather than sweeping fire-and-forget) is
    /// what makes invalidation crash-tolerant: an aborted sweep retries
    /// on the next one.
    retired: Vec<Fingerprint>,
}

/// A registered matrix: validated once, fingerprint computed once,
/// payload retained so the engine can re-compose after an eviction
/// without resubmission.
///
/// Handles are **mutable registrations**: [`apply_updates`] applies an
/// edge-delta batch atomically, bumping the matrix's *epoch* — the
/// version counter folded into [`Fingerprint`] equality, hashing, and
/// digests — so every plan cached for an earlier generation becomes
/// unreachable the instant the batch commits. Clones share the
/// registration (an update through one clone is visible to all), which
/// is what lets concurrent servers and updaters coordinate through the
/// epoch.
///
/// [`apply_updates`]: MatrixHandle::apply_updates
#[derive(Debug)]
pub struct MatrixHandle<T> {
    shared: Arc<RwLock<HandleState<T>>>,
    /// Serializes [`MatrixHandle::apply_updates`] across clones, so each
    /// batch builds from the generation it commits over while `shared`
    /// is write-locked only for the swap.
    updater: Arc<Mutex<()>>,
}

impl<T> Clone for MatrixHandle<T> {
    fn clone(&self) -> Self {
        MatrixHandle {
            shared: Arc::clone(&self.shared),
            updater: Arc::clone(&self.updater),
        }
    }
}

/// What one committed delta batch did to a handle — the engine's
/// cache-maintenance input, and the caller's receipt.
#[derive(Debug)]
pub struct AppliedDelta<T> {
    /// The fingerprint retired by this batch.
    pub old_fingerprint: Fingerprint,
    /// The handle's new fingerprint (epoch = old + 1).
    pub fingerprint: Fingerprint,
    /// The updated payload the handle now serves.
    pub csr: Arc<CsrMatrix<T>>,
    /// Every touched `(row, col)` coordinate, in batch order.
    pub touched: Vec<(usize, usize)>,
    /// Distinct rows the batch touched.
    pub touched_rows: usize,
    /// `true` when the churn crossed [`lf_cost::churn_threshold`]: the
    /// measured-cost model predicts incremental CELL maintenance would
    /// be slower than recomposing, so cached plans should be dropped and
    /// rebuilt rather than migrated.
    pub rebuild: bool,
}

impl<T: Scalar> MatrixHandle<T> {
    /// Register a matrix: validates it strictly (structure **and**
    /// finiteness — handles are the trusted fast path, so they always
    /// get the strict policy), then fingerprints it (one O(nnz) pass)
    /// and wraps the payload for cheap sharing across requests. A fresh
    /// registration is epoch 0.
    pub fn new(csr: CsrMatrix<T>) -> LfResult<Self> {
        csr.validate_finite()?;
        let fingerprint = Fingerprint::of_csr(&csr);
        Ok(MatrixHandle {
            shared: Arc::new(RwLock::new(HandleState {
                csr: Arc::new(csr),
                fingerprint,
                retired: Vec::new(),
            })),
            updater: Arc::new(Mutex::new(())),
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, HandleState<T>> {
        self.shared.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HandleState<T>> {
        self.shared.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The handle's current fingerprint (epoch included).
    pub fn fingerprint(&self) -> Fingerprint {
        self.read().fingerprint
    }

    /// The handle's current mutation epoch (0 until the first update).
    pub fn epoch(&self) -> u64 {
        self.read().fingerprint.epoch
    }

    /// The current payload (cheap: clones the `Arc`, not the matrix).
    pub fn csr(&self) -> Arc<CsrMatrix<T>> {
        Arc::clone(&self.read().csr)
    }

    /// One consistent `(fingerprint, payload)` snapshot — the pair a
    /// serve must use together. Reading the two through separate calls
    /// could interleave with a concurrent update and pair the old
    /// payload with the new key (or vice versa).
    pub fn current(&self) -> (Fingerprint, Arc<CsrMatrix<T>>) {
        let st = self.read();
        (st.fingerprint, Arc::clone(&st.csr))
    }

    /// Fingerprints of retired epochs not yet confirmed swept from
    /// every cache tier.
    pub fn retired(&self) -> Vec<Fingerprint> {
        self.read().retired.clone()
    }

    /// Drop retired fingerprints a sweep has confirmed clean.
    pub(crate) fn clear_retired(&self, done: &[Fingerprint]) {
        if done.is_empty() {
            return;
        }
        self.write().retired.retain(|fp| !done.contains(fp));
    }

    /// Apply an edge-delta batch **atomically**: the whole batch is
    /// validated against the current matrix first (typed
    /// [`SparseError`]s: out-of-range coordinates, duplicate targets,
    /// insert-present / delete-absent conflicts, non-finite values), a
    /// new payload is built and fingerprinted beside the old one, and
    /// only then — under the handle's write lock, held for nothing but
    /// the swap — the payload, fingerprint, and epoch swap in together.
    /// Concurrent updaters queue on a per-handle update mutex, so each
    /// builds from the generation it replaces; serves keep reading the
    /// old generation meanwhile. A rejected batch leaves the handle
    /// bitwise untouched; a reader never observes a half-applied
    /// generation because the previous payload is an immutable `Arc`
    /// snapshot until the commit point.
    ///
    /// The returned [`AppliedDelta`] carries what cache maintenance
    /// needs (retired fingerprint, touched coordinates, the
    /// churn-threshold verdict). Callers serving through a
    /// [`ServeEngine`] should prefer
    /// [`ServeEngine::apply_updates`], which also migrates cached plans
    /// and retires stale ones across both cache tiers.
    ///
    /// [`SparseError`]: lf_sparse::SparseError
    /// [`ServeEngine`]: crate::ServeEngine
    /// [`ServeEngine::apply_updates`]: crate::ServeEngine::apply_updates
    pub fn apply_updates(&self, updates: &[EdgeUpdate<T>]) -> LfResult<AppliedDelta<T>> {
        let _updating = self.updater.lock().unwrap_or_else(PoisonError::into_inner);
        // Only updaters replace the payload, and they are serialized, so
        // this snapshot stays current until the swap below.
        let (old_fingerprint, old_csr) = self.current();
        let new_csr = old_csr
            .apply_updates(updates)
            .map_err(LfError::InvalidInput)?;
        #[cfg(feature = "chaos")]
        {
            use lf_check::chaos::{decide, ChaosSite};
            if decide(ChaosSite::UpdateTorn) {
                // Simulated kill between validation and commit: the
                // fully built next generation is dropped and the handle
                // stays on the old epoch — the only two states a torn
                // update may leave.
                return Err(LfError::ResourceExhausted {
                    what: format!("chaos: torn update at {}", ChaosSite::UpdateTorn.name()),
                });
            }
        }
        let touched: Vec<(usize, usize)> = updates.iter().map(EdgeUpdate::coord).collect();
        let mut rows: Vec<usize> = touched.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        let touched_rows = rows.len();
        let features = TileFeatures::new(new_csr.rows(), new_csr.nnz(), std::mem::size_of::<T>());
        let rebuild = lf_cost::should_rebuild(features, touched_rows);
        let fingerprint = Fingerprint::of_csr(&new_csr).with_epoch(old_fingerprint.epoch + 1);
        let csr = Arc::new(new_csr);
        {
            let mut st = self.write();
            st.csr = Arc::clone(&csr);
            st.fingerprint = fingerprint;
            st.retired.push(old_fingerprint);
        }
        Ok(AppliedDelta {
            old_fingerprint,
            fingerprint,
            csr,
            touched,
            touched_rows,
            rebuild,
        })
    }
}
