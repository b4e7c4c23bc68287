//! The microkernel's range entry (`simd::stream_rows`) is **bitwise
//! equal** to the per-element reference order, and refuses a bad range
//! before it reads `B`.
//!
//! Every dense width `J ∈ 1..=136` (each compile-time width 1, 2, 4, …,
//! 64, every strip-cascade branch and remainder for 4 and 8 lanes, and
//! the generic j-tile loop) runs under every lane shape, j-tiles that
//! put strips at non-zero offsets or force the generic loop, and
//! k-block depths 1, 3 and 32, for `f32` and `f64`, on three range
//! shapes: one row (`stream_row`) with padding mid-row and trailing; a
//! CSR row chunk from the middle of a matrix with empty rows, plus a
//! zero-length chunk; and a fixed-width band with `ELL_PAD` slots and
//! gaps in its `row_ind`, whose skipped `C` rows must stay untouched.

use lf_kernels::{stream_row, stream_rows, Lanes, Rows, TileParams};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, Index, Scalar};

/// Rows of `B`.
const K: usize = 23;

/// `c_row[s] += Σ_k vals[k] · B[cols[k]][s]` in ascending `k`, one
/// element at a time — the contract order.
fn reference<T: Scalar>(c_row: &mut [T], cols: &[Index], vals: &[T], b: &DenseMatrix<T>) {
    for (s, cv) in c_row.iter_mut().enumerate() {
        for (&col, &a) in cols.iter().zip(vals) {
            if col != ELL_PAD {
                *cv += a * b.get(col as usize, s);
            }
        }
    }
}

/// Every lane shape × j-tile {whole, 40, 7} × k-block {1, 3, 32}.
fn tiles() -> impl Iterator<Item = TileParams> {
    [usize::MAX, 40, 7].into_iter().flat_map(|j_tile| {
        [1, 3, 32].into_iter().flat_map(move |k_block| {
            [Lanes::Scalar, Lanes::X4, Lanes::X8]
                .into_iter()
                .map(move |lanes| TileParams {
                    j_tile,
                    k_block,
                    lanes,
                    chunk_slots: 1,
                })
        })
    })
}

/// `f32 -> f64` widening is exact, so equal images mean equal bits.
fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn b_matrix<T: Scalar>(j: usize) -> DenseMatrix<T> {
    DenseMatrix::from_fn(K, j, |r, s| {
        T::from_f64(((r * 31 + s * 7) % 29) as f64 / 7.0 - 2.0)
    })
}

/// A `C` block of `rows` rows with distinct non-zero contents, so a row
/// written twice, skipped, or overwritten instead of accumulated into
/// shows.
fn c_init<T: Scalar>(rows: usize, j: usize) -> Vec<T> {
    (0..rows * j)
        .map(|e| T::from_f64(e as f64 * 0.125 - 3.0))
        .collect()
}

fn values<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64((i as f64 - 19.5) * 0.37))
        .collect()
}

fn check<T: Scalar>(got: &[T], want: &[T], what: &str, j: usize, tile: &TileParams) {
    assert!(
        bits(got) == bits(want),
        "{} {what} j={j} j_tile={} k_block={} {:?}",
        std::any::type_name::<T>(),
        tile.j_tile,
        tile.k_block,
        tile.lanes
    );
}

/// One 40-slot row through `stream_row`, padding mid-row and trailing.
fn one_row<T: Scalar>(j: usize, b: &DenseMatrix<T>) {
    let mut cols: Vec<Index> = (0..40).map(|i| (i * 7 % K) as Index).collect();
    for p in [3, 4, 17, 36, 37, 38, 39] {
        cols[p] = ELL_PAD;
    }
    let vals = values::<T>(40);
    let mut want = c_init::<T>(1, j);
    reference(&mut want, &cols, &vals, b);
    for tile in tiles() {
        let mut got = c_init::<T>(1, j);
        stream_row(&tile, &mut got, &cols, &vals, b);
        check(&got, &want, "one row", j, &tile);
    }
}

/// Rows 2..9 of a CSR matrix, lengths [3, 0, 5, 0, 0, 7, 1]: the chunk's
/// `row_ptr` starts mid-array, and two of its rows are empty in a row.
/// Then a zero-length chunk, which must leave its empty `C` block and
/// touch nothing.
fn csr_chunk<T: Scalar>(j: usize, b: &DenseMatrix<T>) {
    let lens = [4, 2, 3, 0, 5, 0, 0, 7, 1, 6];
    let mut row_ptr = vec![0];
    for len in lens {
        row_ptr.push(row_ptr.last().unwrap() + len);
    }
    let nnz = *row_ptr.last().unwrap();
    let cols: Vec<Index> = (0..nnz).map(|i| (i * 11 % K) as Index).collect();
    let vals = values::<T>(nnz);
    let ptr = &row_ptr[2..=9];
    let mut want = c_init::<T>(7, j);
    for (o, w) in ptr.windows(2).enumerate() {
        let (s, e) = (w[0], w[1]);
        reference(&mut want[o * j..][..j], &cols[s..e], &vals[s..e], b);
    }
    for tile in tiles() {
        let mut got = c_init::<T>(7, j);
        stream_rows(&tile, &mut got, Rows::Csr(ptr), &cols, &vals, b);
        check(&got, &want, "csr chunk", j, &tile);
        stream_rows(&tile, &mut [], Rows::Csr(&row_ptr[4..5]), &cols, &vals, b);
    }
}

/// A band of 9 output rows standing for rows 30..39; the range's 4
/// bucket rows land on 30, 32, 33 and 37 (the rest are gaps), each 6
/// slots wide with `ELL_PAD` trailing in one row and mid-row in another.
fn fixed_band<T: Scalar>(j: usize, b: &DenseMatrix<T>) {
    let (width, base) = (6, 30);
    let row_ind: [Index; 4] = [30, 32, 33, 37];
    let mut cols: Vec<Index> = (0..4 * width).map(|i| (i * 5 % K) as Index).collect();
    for p in [4, 5, 14, 20, 21, 22, 23] {
        cols[p] = ELL_PAD;
    }
    let vals = values::<T>(4 * width);
    let mut want = c_init::<T>(9, j);
    for (i, &r) in row_ind.iter().enumerate() {
        let o = r as usize - base;
        let slots = i * width..(i + 1) * width;
        reference(
            &mut want[o * j..][..j],
            &cols[slots.clone()],
            &vals[slots],
            b,
        );
    }
    let rows = Rows::Fixed {
        width,
        row_ind: Some(&row_ind),
        base,
    };
    for tile in tiles() {
        let mut got = c_init::<T>(9, j);
        stream_rows(&tile, &mut got, rows, &cols, &vals, b);
        check(&got, &want, "fixed band", j, &tile);
    }
}

fn sweep_widths<T: Scalar>() {
    for j in 1..=136 {
        let b = b_matrix::<T>(j);
        one_row(j, &b);
        csr_chunk(j, &b);
        fixed_band(j, &b);
    }
}

#[test]
fn every_width_and_tile_matches_reference_order_bitwise() {
    sweep_widths::<f32>();
    sweep_widths::<f64>();
}

#[test]
#[should_panic(expected = "stream_rows out of bounds")]
fn a_column_past_b_is_refused_before_any_read() {
    let b = b_matrix::<f32>(16);
    let cols: [Index; 4] = [0, 3, K as Index, 1];
    let mut c = c_init::<f32>(2, 16);
    let tile = TileParams::default().with_lanes(Lanes::X8);
    stream_rows(&tile, &mut c, Rows::Csr(&[0, 2, 4]), &cols, &[1.0; 4], &b);
}

#[test]
#[should_panic(expected = "stream_rows out of bounds")]
fn an_output_row_outside_the_band_is_refused_before_any_read() {
    let b = b_matrix::<f32>(16);
    let mut c = c_init::<f32>(3, 16);
    let rows = Rows::Fixed {
        width: 2,
        row_ind: Some(&[10, 13]),
        base: 10,
    };
    let tile = TileParams::default().with_lanes(Lanes::X8);
    stream_rows(&tile, &mut c, rows, &[0, 1, 2, 3], &[1.0; 4], &b);
}
