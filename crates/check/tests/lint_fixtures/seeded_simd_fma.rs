//! Seeded bug: `determinism`. The rejected FMA variant of the
//! microkernel's scalar tail: `mul_add` keeps the infinitely precise
//! product, so its result differs from the plain mul-then-add path in
//! the last ulp and the batched-vs-solo bitwise property breaks.
//! `lint_rules.rs` appends this function to the real
//! `crates/kernels/src/simd.rs` text.

fn scalar_tail_fma_reverted(acc: &mut [f64], coeffs: &[f64], rows: &[&[f64]], offset: usize) {
    for (s, slot) in acc.iter_mut().enumerate() {
        let mut r = *slot;
        for (a, row) in coeffs.iter().zip(rows) {
            r = a.mul_add(row[offset + s], r);
        }
        *slot = r;
    }
}
