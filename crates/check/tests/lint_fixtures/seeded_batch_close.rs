//! Seeded bug: `lock-order`. The old `BatchBoard::close` order — it
//! takes `group.state` *first* and only then the board lock, the exact
//! inversion against `admit` (board → group) that could deadlock a
//! closing leader against a joining member. `lint_rules.rs` appends this
//! block to the real `crates/serve/src/batch.rs` text, so the rule
//! resolves both receivers through the real type declarations.

impl<T: Scalar> BatchBoard<T> {
    pub(crate) fn close_reverted(
        &self,
        fp: &Fingerprint,
        group: &Arc<BatchGroup<T>>,
    ) -> Vec<Member<T>> {
        let mut st = lock(&group.state);
        let mut open = lock(&self.open);
        if open.get(fp).is_some_and(|g| Arc::ptr_eq(g, group)) {
            open.remove(fp);
        }
        st.total_j = 0;
        std::mem::take(&mut st.joiners)
    }
}
