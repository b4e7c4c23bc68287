//! Fixture: `lock-order`, the write-behind demotion classes. The
//! writer's batch lock (`writing`) precedes the queue (`pending`), which
//! is a leaf: `batch_ok` takes them in order, `purge_bad` takes the
//! batch lock while holding the queue.

impl<T> Disk<T> {
    fn batch_ok(&self) {
        let _writing = lock(&self.writing);
        let q = lock(&self.pending);
        q.note();
    }

    fn purge_bad(&self) {
        let q = lock(&self.pending);
        let w = lock(&self.writing);
        q.note(&w);
    }
}
