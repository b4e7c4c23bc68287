//! Seeded bug: `determinism`. The rejected FMA variant of the
//! microkernel's register strip: `mul_add` keeps the infinitely precise
//! product, so its result differs from the plain mul-then-add path in
//! the last ulp and the lane-modes-agree bitwise property breaks.
//! `lint_rules.rs` appends this function to the real
//! `crates/kernels/src/simd.rs` text.

fn strip_fma_reverted(
    acc: &mut [f64],
    offset: usize,
    cols: &[Index],
    vals: &[f64],
    b: &[f64],
    ld: usize,
) {
    let acc = &mut acc[..8];
    let mut r = [0.0f64; 8];
    r.copy_from_slice(acc);
    for (&col, &a) in cols.iter().zip(vals) {
        if col == ELL_PAD {
            continue;
        }
        let row = &b[col as usize * ld + offset..][..8];
        for (rv, &bv) in r.iter_mut().zip(row) {
            *rv = a.mul_add(bv, *rv);
        }
    }
    acc.copy_from_slice(&r);
}
