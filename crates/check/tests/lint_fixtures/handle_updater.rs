//! Fixture: `lock-order`, the `MatrixHandle.updater` class. The update
//! mutex serializes delta batches and is ordered before the handle's
//! `RwLock`: `apply_ok` builds under the update mutex and takes the
//! handle lock only for the swap; `apply_bad` takes the update mutex
//! while holding the handle's write guard.

impl MatrixHandle {
    fn apply_ok(&self) {
        let _updating = self.updater.lock();
        let snapshot = self.current();
        let mut st = self.shared.write();
        st.swap(snapshot);
    }

    fn apply_bad(&self) {
        let mut st = self.shared.write();
        let _late = self.updater.lock();
        st.swap();
    }
}
