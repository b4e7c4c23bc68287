//! Fixture: `lock-order`, cache shard class. A `PlanCache` shard locked
//! through the `self.shard(fp)` accessor is a leaf: taking the batch
//! board while its guard is live is an inversion. Releasing the guard
//! first (`drop`) makes the same acquisition legal.

impl PlanCache {
    fn admit_bad(&self, fp: &Fingerprint, board: &BatchBoard) {
        let shard = lock_unpoisoned(self.shard(fp));
        let open = lock(&board.open);
        open.note(&shard);
    }

    fn admit_ok(&self, fp: &Fingerprint, board: &BatchBoard) {
        let shard = lock_unpoisoned(self.shard(fp));
        shard.touch();
        drop(shard);
        let open = lock(&board.open);
        open.note_empty();
    }
}
