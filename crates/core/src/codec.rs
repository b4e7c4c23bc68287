//! Binary plan codec: a versioned, checksummed, little-endian encoding
//! of [`PreparedPlan`] so composed plans can outlive the process.
//!
//! Everything a plan carries is plain old data — CELL bucket arrays (or
//! the CSR fallback's three arrays), the [`CellConfig`] it was built
//! with, the tuned dense width, and the execution [`TileParams`] — so a
//! record is a flat byte stream with no pointer fixup on either side.
//! The framing is deliberately hand-rolled (no serde, no external
//! format): the serving layer's disk tier trusts these records with
//! production traffic, so the decoder must be auditable end to end and
//! must *reject* rather than reinterpret anything it does not
//! recognize.
//!
//! ## Record layout
//!
//! ```text
//! magic "LFPL" (4) | version u16 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The CRC-32 (IEEE) covers every byte before it — magic, version,
//! length, and payload — so a torn tail, a truncated copy, or any
//! single-byte flip fails the checksum before the payload parser runs.
//! The payload parser itself still checks every length and every index
//! bound: a record with a *valid* checksum but hostile contents (say, a
//! column index past `cols`, which would send a kernel out of bounds) is
//! rejected with a typed [`CodecError`], never trusted.
//!
//! ## Cost
//!
//! [`crc32`] is slicing-by-16 (sixteen compile-time tables, sixteen
//! bytes per step) with the standard polynomial, init and final XOR, so
//! its values are those of the byte-at-a-time loop. Bulk arrays move
//! through one writer resize or one bounds-checked reader take each.
//! Per record of the serving benchmark's `zipf_spill` population
//! (408 KiB mean, f32, 2-vCPU Xeon) a CRC pass takes about 0.09 ms,
//! an encode 0.11 ms and a decode 0.17 ms, both CRCs included.
//!
//! ## Guarantees
//!
//! * **Round-trip exactness.** `decode(encode(plan))` rebuilds a plan
//!   whose kernel output is bitwise identical to the original's on
//!   single-writer paths: the bucket arrays, value bits, tuned width,
//!   and execution tile are reproduced verbatim, and none of those
//!   change a column's reduction order (`crates/core/tests/plan_codec.rs`
//!   proves this across the fuzzer's structure classes).
//! * **No panics, no lies.** [`decode_plan`] on arbitrary bytes returns
//!   `Err`, never panics, and never returns `Ok` for bytes that are not
//!   a faithful encoding (the corruption suite fuzzes this with seeded
//!   mutations).
//! * **Version honesty.** Records from a future (or corrupted) version
//!   are rejected with [`CodecError::UnsupportedVersion`]; the format
//!   never silently reinterprets old bytes.
//!
//! Construction-time instrumentation ([`PreparedPlan::overhead`] /
//! `profile`) is *not* encoded: a decoded plan reports zero construction
//! cost, which is the truth — restoring it from bytes paid none.

use crate::composer::{PreparedKernel, PreparedPlan};
use crate::profile::PreprocessProfile;
use lf_cell::{Bucket, CellConfig, CellMatrix, Partition};
use lf_cost::tile::TileFeatures;
use lf_kernels::{CellKernel, CsrVectorKernel, Lanes, TileParams};
use lf_sim::atomicf::AtomicScalar;
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{CsrMatrix, Index, Scalar};

/// Record magic: "LFPL" (LiteForm PLan).
pub const MAGIC: [u8; 4] = *b"LFPL";
/// Current record version. Bump on any layout change.
///
/// Version history:
/// * **1** — initial layout.
/// * **2** — adds the operand's mutation epoch (`u64`) to the common
///   section, so the disk tier can refuse plans composed before an
///   update batch. Version-1 records predate mutable matrices and are
///   rejected ([`CodecError::UnsupportedVersion`]) rather than assumed
///   to be epoch 0 — the store treats that as a stale record and
///   deletes it.
pub const VERSION: u16 = 2;

/// Why an encode or decode was refused. Every variant is a *rejection*:
/// the bytes (or the plan) are returned to the caller untouched and
/// nothing partial escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The record does not start with [`MAGIC`].
    BadMagic,
    /// The record's version is not one this decoder understands.
    UnsupportedVersion(u16),
    /// The byte stream ended before a field it promised.
    Truncated {
        /// Bytes the parser needed next.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The CRC-32 over the record did not match its trailer.
    ChecksumMismatch,
    /// The record encodes a different scalar type than requested.
    WrongElemSize {
        /// `size_of::<T>()` of the requested plan type.
        expected: u8,
        /// The element size stamped in the record.
        found: u8,
    },
    /// A field failed semantic validation (named for diagnostics).
    BadField(&'static str),
    /// Degraded fallback plans are never persisted: they exist only to
    /// answer one request while the real composition is unavailable.
    DegradedPlan,
    /// A fixed-CSR verdict holds no operand, so there is nothing to
    /// encode or reconstruct: it runs over the request's own matrix.
    NoOperand,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "plan record has wrong magic"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "plan record version {v} is not supported (have {VERSION})"
                )
            }
            CodecError::Truncated { need, have } => {
                write!(f, "plan record truncated: needed {need} bytes, had {have}")
            }
            CodecError::ChecksumMismatch => write!(f, "plan record failed its CRC-32 check"),
            CodecError::WrongElemSize { expected, found } => write!(
                f,
                "plan record stores {found}-byte elements, caller expects {expected}-byte"
            ),
            CodecError::BadField(what) => write!(f, "plan record field rejected: {what}"),
            CodecError::DegradedPlan => {
                write!(f, "degraded fallback plans are never encoded")
            }
            CodecError::NoOperand => {
                write!(f, "a fixed-CSR verdict holds no operand to encode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Wire primitives: little-endian scalars plus CRC-32, shared with the
// serving layer's record framing.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) slicing-by-16 tables, built at compile
/// time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC state contributed by byte `b` followed
/// by `k` zero bytes, so sixteen input bytes fold into the state with
/// sixteen independent lookups instead of a sixteen-step dependency chain.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) over `bytes`: the standard reflected polynomial,
/// all-ones init and final XOR, computed sixteen bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut c = !0u32;
    for b in blocks {
        let w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        let mut next = t[15][(w & 0xff) as usize]
            ^ t[14][((w >> 8) & 0xff) as usize]
            ^ t[13][((w >> 16) & 0xff) as usize]
            ^ t[12][(w >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            next ^= t[11 - k][byte as usize];
        }
        c = next;
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Append-only little-endian byte sink.
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consume the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Grow the buffer by `n` zero bytes and return them for the caller
    /// to fill: one resize per bulk array instead of one push per element.
    fn extend_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append the CRC-32 of everything written so far (the record
    /// trailer convention).
    pub fn crc_trailer(&mut self) {
        let c = crc32(&self.buf);
        self.u32(c);
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every read
/// returns [`CodecError::Truncated`] instead of slicing past the end,
/// so the decoder can never panic on short input.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("len 2"),
        ))
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("len 4"),
        ))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values that do
    /// not fit (or that exceed `cap`, a cheap pre-allocation sanity
    /// bound derived from the bytes actually present).
    pub fn len(&mut self, cap: usize, what: &'static str) -> Result<usize, CodecError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| CodecError::BadField(what))?;
        if v > cap {
            return Err(CodecError::BadField(what));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Bulk arrays: values are stored at their native width, bit-exact. Each
// array costs one writer resize or one bounds-checked reader take, then
// a fixed-width chunk loop.
// ---------------------------------------------------------------------

fn write_values<T: Scalar>(w: &mut ByteWriter, values: &[T]) {
    if std::mem::size_of::<T>() == 4 {
        let (out, _) = w.extend_zeroed(values.len() * 4).as_chunks_mut::<4>();
        for (dst, v) in out.iter_mut().zip(values) {
            *dst = (v.to_f64() as f32).to_bits().to_le_bytes();
        }
    } else {
        let (out, _) = w.extend_zeroed(values.len() * 8).as_chunks_mut::<8>();
        for (dst, v) in out.iter_mut().zip(values) {
            *dst = v.to_f64().to_bits().to_le_bytes();
        }
    }
}

fn read_values<T: Scalar>(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<T>, CodecError> {
    let elem = std::mem::size_of::<T>();
    // `n` elements must actually be present before anything is allocated.
    let bytes = r.bytes(n.checked_mul(elem).ok_or(CodecError::BadField("values"))?)?;
    Ok(if elem == 4 {
        let (words, _) = bytes.as_chunks::<4>();
        words
            .iter()
            .map(|b| T::from_f64(f32::from_bits(u32::from_le_bytes(*b)) as f64))
            .collect()
    } else {
        let (words, _) = bytes.as_chunks::<8>();
        words
            .iter()
            .map(|b| T::from_f64(f64::from_bits(u64::from_le_bytes(*b))))
            .collect()
    })
}

fn write_indices(w: &mut ByteWriter, ind: &[Index]) {
    let (out, _) = w.extend_zeroed(ind.len() * 4).as_chunks_mut::<4>();
    for (dst, &i) in out.iter_mut().zip(ind) {
        *dst = i.to_le_bytes();
    }
}

fn read_indices(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<Index>, CodecError> {
    let bytes = r.bytes(n.checked_mul(4).ok_or(CodecError::BadField("indices"))?)?;
    let (words, _) = bytes.as_chunks::<4>();
    Ok(words.iter().map(|b| u32::from_le_bytes(*b)).collect())
}

fn lanes_tag(l: Lanes) -> u8 {
    match l {
        Lanes::Auto => 0,
        Lanes::Scalar => 1,
        Lanes::X4 => 2,
        Lanes::X8 => 3,
    }
}

fn lanes_from_tag(t: u8) -> Result<Lanes, CodecError> {
    Ok(match t {
        0 => Lanes::Auto,
        1 => Lanes::Scalar,
        2 => Lanes::X4,
        3 => Lanes::X8,
        _ => return Err(CodecError::BadField("lanes")),
    })
}

const KIND_CELL: u8 = 0;
const KIND_CSR: u8 = 1;

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Encode a plan into a self-contained, checksummed record.
///
/// Degraded fallback plans are refused ([`CodecError::DegradedPlan`]):
/// they are one-request stand-ins the cache itself never admits. So are
/// fixed-CSR verdicts ([`CodecError::NoOperand`]): they hold no operand.
pub fn encode_plan<T: AtomicScalar>(plan: &PreparedPlan<T>) -> Result<Vec<u8>, CodecError> {
    if plan.degraded {
        return Err(CodecError::DegradedPlan);
    }
    let mut w = ByteWriter::with_capacity(plan.format_bytes() + 256);
    w.bytes(&MAGIC);
    w.u16(VERSION);
    w.u64(0); // payload_len, patched once the payload is written
    let start = w.buf.len();
    w.u8(std::mem::size_of::<T>() as u8);
    let tile = plan.tile_params();
    match &plan.kernel {
        PreparedKernel::Cell { config, kernel } => {
            w.u8(KIND_CELL);
            encode_common(&mut w, plan.tuned_j, tile, plan.epoch);
            let cell = kernel.cell();
            w.u64(cell.rows() as u64);
            w.u64(cell.cols() as u64);
            w.u64(cell.nnz() as u64);
            encode_config(&mut w, config);
            w.u64(cell.partitions().len() as u64);
            for p in cell.partitions() {
                w.u64(p.col_range.0 as u64);
                w.u64(p.col_range.1 as u64);
                w.u64(p.buckets.len() as u64);
                for b in &p.buckets {
                    w.u64(b.width as u64);
                    w.u64(b.rows_per_block as u64);
                    w.u8(u8::from(b.needs_atomic) | (u8::from(b.has_folded) << 1));
                    w.u64(b.num_rows() as u64);
                    write_indices(&mut w, &b.row_ind);
                    write_indices(&mut w, &b.col_ind);
                    write_values(&mut w, &b.values);
                }
            }
        }
        PreparedKernel::CsrVerdict { .. } => return Err(CodecError::NoOperand),
        PreparedKernel::FixedCsr(kernel) => {
            w.u8(KIND_CSR);
            encode_common(&mut w, plan.tuned_j, tile, plan.epoch);
            let csr = kernel.csr();
            w.u64(csr.rows() as u64);
            w.u64(csr.cols() as u64);
            w.u64(csr.nnz() as u64);
            let (out, _) = w
                .extend_zeroed(csr.row_ptr().len() * 8)
                .as_chunks_mut::<8>();
            for (dst, &p) in out.iter_mut().zip(csr.row_ptr()) {
                *dst = (p as u64).to_le_bytes();
            }
            write_indices(&mut w, csr.col_ind());
            write_values(&mut w, csr.values());
        }
    }
    let len = (w.buf.len() - start) as u64;
    w.buf[start - 8..start].copy_from_slice(&len.to_le_bytes());
    w.crc_trailer();
    Ok(w.into_bytes())
}

fn encode_common(w: &mut ByteWriter, tuned_j: usize, tile: TileParams, epoch: u64) {
    w.u64(tuned_j as u64);
    w.u32(tile.j_tile as u32);
    w.u32(tile.k_block as u32);
    w.u8(lanes_tag(tile.lanes));
    w.u32(tile.chunk_slots as u32);
    w.u64(epoch);
}

fn encode_config(w: &mut ByteWriter, config: &CellConfig) {
    w.u64(config.num_partitions as u64);
    w.u64(config.block_nnz_multiple as u64);
    w.u8(u8::from(config.uniform_block_nnz));
    match &config.max_widths {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(v.len() as u64);
            for &x in v {
                w.u64(x as u64);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

/// Decode a record produced by [`encode_plan`], re-validating every
/// framing, structural, and index invariant. The returned plan reports
/// zero construction overhead (truthfully — decoding paid none) and
/// carries the encoded tuned width and execution tile verbatim.
pub fn decode_plan<T: AtomicScalar>(bytes: &[u8]) -> Result<PreparedPlan<T>, CodecError> {
    // Framing first: magic, version, length, checksum — in that order,
    // so error variants identify *why* a record is unreadable.
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let payload_len = r.len(r.remaining().saturating_sub(4), "payload_len")?;
    let payload_end = bytes.len() - r.remaining() + payload_len;
    let payload = r.bytes(payload_len)?;
    let stored_crc = r.u32()?;
    if r.remaining() != 0 {
        // Trailing garbage is not a faithful record.
        return Err(CodecError::BadField("trailing bytes"));
    }
    if crc32(&bytes[..payload_end]) != stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }

    let mut r = ByteReader::new(payload);
    let elem = r.u8()?;
    if elem as usize != std::mem::size_of::<T>() {
        return Err(CodecError::WrongElemSize {
            expected: std::mem::size_of::<T>() as u8,
            found: elem,
        });
    }
    let kind = r.u8()?;
    let tuned_j = r.len(usize::MAX, "tuned_j")?;
    let tile = TileParams {
        j_tile: r.u32()? as usize,
        k_block: r.u32()? as usize,
        lanes: lanes_from_tag(r.u8()?)?,
        chunk_slots: r.u32()? as usize,
    };
    if tile.j_tile == 0 || tile.k_block == 0 || tile.chunk_slots == 0 {
        return Err(CodecError::BadField("tile"));
    }
    let epoch = r.u64()?;
    let rows = r.len(usize::MAX >> 8, "rows")?;
    let cols = r.len(usize::MAX >> 8, "cols")?;
    let nnz = r.len(usize::MAX >> 8, "nnz")?;
    let features = TileFeatures::new(rows, nnz, std::mem::size_of::<T>());
    let kernel = match kind {
        KIND_CELL => {
            let config = decode_config(&mut r)?;
            let cell = decode_cell::<T>(&mut r, rows, cols, nnz, config.clone())?;
            PreparedKernel::Cell {
                config,
                kernel: CellKernel::tiled(cell, tile),
            }
        }
        KIND_CSR => {
            let csr = decode_csr::<T>(&mut r, rows, cols, nnz)?;
            PreparedKernel::FixedCsr(CsrVectorKernel::new(csr).with_tile(tile))
        }
        _ => return Err(CodecError::BadField("kind")),
    };
    if r.remaining() != 0 {
        return Err(CodecError::BadField("payload slack"));
    }
    Ok(PreparedPlan {
        kernel,
        tuned_j,
        features,
        tile,
        overhead: Default::default(),
        profile: PreprocessProfile::default(),
        degraded: false,
        epoch,
    })
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<CellConfig, CodecError> {
    let num_partitions = r.len(usize::MAX >> 8, "num_partitions")?;
    let block_nnz_multiple = r.len(usize::MAX >> 8, "block_nnz_multiple")?;
    if num_partitions == 0 || !block_nnz_multiple.is_power_of_two() {
        return Err(CodecError::BadField("config"));
    }
    let uniform_block_nnz = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::BadField("uniform_block_nnz")),
    };
    let max_widths = match r.u8()? {
        0 => None,
        1 => {
            let n = r.len(r.remaining() / 8, "max_widths len")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let w = r.len(usize::MAX >> 8, "max_width")?;
                if !w.is_power_of_two() {
                    return Err(CodecError::BadField("max_width"));
                }
                v.push(w);
            }
            Some(v)
        }
        _ => return Err(CodecError::BadField("max_widths tag")),
    };
    Ok(CellConfig {
        num_partitions,
        max_widths,
        block_nnz_multiple,
        uniform_block_nnz,
    })
}

fn decode_cell<T: AtomicScalar>(
    r: &mut ByteReader<'_>,
    rows: usize,
    cols: usize,
    nnz: usize,
    config: CellConfig,
) -> Result<CellMatrix<T>, CodecError> {
    let n_parts = r.len(r.remaining() / 24, "partitions")?;
    let mut partitions = Vec::with_capacity(n_parts);
    let mut stored_nnz = 0usize;
    for _ in 0..n_parts {
        let col_lo = r.len(usize::MAX >> 8, "col_lo")?;
        let col_hi = r.len(usize::MAX >> 8, "col_hi")?;
        if col_lo > col_hi || col_hi > cols {
            return Err(CodecError::BadField("col_range"));
        }
        let n_buckets = r.len(r.remaining() / 25, "buckets")?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let width = r.len(usize::MAX >> 8, "width")?;
            let rows_per_block = r.len(usize::MAX >> 8, "rows_per_block")?;
            if !width.is_power_of_two() || rows_per_block == 0 {
                return Err(CodecError::BadField("bucket shape"));
            }
            let flags = r.u8()?;
            if flags > 3 {
                return Err(CodecError::BadField("bucket flags"));
            }
            let num_rows = r.len(r.remaining() / 4, "bucket rows")?;
            let slots = num_rows
                .checked_mul(width)
                .ok_or(CodecError::BadField("bucket slots"))?;
            let row_ind = read_indices(r, num_rows)?;
            let col_ind = read_indices(r, slots)?;
            let values = read_values::<T>(r, slots)?;
            // Index bounds are a *kernel safety* invariant: the engine's
            // gather loops trust them unchecked, so a crafted record must
            // be rejected here, not crash there.
            for &ri in &row_ind {
                if ri as usize >= rows {
                    return Err(CodecError::BadField("row index out of bounds"));
                }
            }
            for &ci in &col_ind {
                if ci != ELL_PAD {
                    if (ci as usize) >= cols || (ci as usize) < col_lo || (ci as usize) >= col_hi {
                        return Err(CodecError::BadField("col index out of bounds"));
                    }
                    stored_nnz += 1;
                }
            }
            buckets.push(Bucket {
                width,
                row_ind,
                col_ind,
                values,
                rows_per_block,
                needs_atomic: flags & 1 != 0,
                has_folded: flags & 2 != 0,
            });
        }
        partitions.push(Partition {
            col_range: (col_lo, col_hi),
            buckets,
        });
    }
    if stored_nnz != nnz {
        return Err(CodecError::BadField("nnz mismatch"));
    }
    Ok(CellMatrix::from_parts(rows, cols, nnz, partitions, config))
}

fn decode_csr<T: AtomicScalar>(
    r: &mut ByteReader<'_>,
    rows: usize,
    cols: usize,
    nnz: usize,
) -> Result<CsrMatrix<T>, CodecError> {
    let ptr_len = rows
        .checked_add(1)
        .ok_or(CodecError::BadField("row_ptr len"))?;
    let bytes = r.bytes(
        ptr_len
            .checked_mul(8)
            .ok_or(CodecError::BadField("row_ptr"))?,
    )?;
    let (words, _) = bytes.as_chunks::<8>();
    let row_ptr = words
        .iter()
        .map(|b| {
            usize::try_from(u64::from_le_bytes(*b))
                .ok()
                .filter(|&p| p <= usize::MAX >> 8)
                .ok_or(CodecError::BadField("row_ptr entry"))
        })
        .collect::<Result<Vec<usize>, CodecError>>()?;
    let col_ind = read_indices(r, nnz)?;
    let values = read_values::<T>(r, nnz)?;
    let csr = CsrMatrix::from_raw_unchecked(rows, cols, row_ptr, col_ind, values);
    // The structural contract (monotone row_ptr, in-range columns,
    // lengths) is re-proven by the same validator the ingress path uses.
    csr.validate()
        .map_err(|_| CodecError::BadField("csr invariants"))?;
    Ok(csr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the slicing-by-16 CRC must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_offset() {
        let mut rng = lf_sparse::Pcg32::seed_from_u64(0xC3C3);
        let data: Vec<u8> = (0..1100 + 16).map(|_| rng.next_u32() as u8).collect();
        for len in 0..=1100 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Unaligned starts and every tail length past a 16-byte block.
        for start in 1..16 {
            for len in [0, 1, 15, 16, 17, 31, 32, 33, 255, 1024, 1100] {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let ones = [0xffu8; 64];
        assert_eq!(crc32(&ones), crc32_bytewise(&ones));
    }

    #[test]
    fn reader_rejects_short_reads_without_panicking() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(matches!(
            r.u64(),
            Err(CodecError::Truncated { need: 8, have: 1 })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.u8().unwrap(), 3);
    }

    /// A fixed 40×40 operand: row `i` holds `i % 9` entries spread over
    /// both column halves, so a width cap of 2 folds its longer rows.
    fn golden_csr<T: Scalar>() -> CsrMatrix<T> {
        let trips = (0..40usize).flat_map(|i| {
            (0..i % 9).map(move |k| {
                let v = (i * 40 + k) as f64 * 0.25 - 3.0;
                (i, (i * 7 + k * 5) % 40, T::from_f64(v))
            })
        });
        let coo = lf_sparse::CooMatrix::from_triplets(40, 40, trips).expect("in bounds");
        CsrMatrix::from_coo(&coo)
    }

    /// The encoded record of a fixed plan. The tile and tuned width are
    /// pinned because the tile search depends on host calibration.
    fn golden_record<T: AtomicScalar>(cell: bool) -> Vec<u8> {
        let csr = golden_csr::<T>();
        let mut plan = if cell {
            let config = CellConfig::with_partitions(2).with_max_widths(vec![2]);
            let cell = lf_cell::build_cell(&csr, &config).expect("valid config");
            assert!(
                cell.partitions()
                    .iter()
                    .all(|p| p.buckets.iter().any(|b| b.has_folded)),
                "every partition must hold folded rows"
            );
            PreparedPlan::from_cell(config, cell, PreprocessProfile::default())
        } else {
            PreparedPlan::from_csr(csr, PreprocessProfile::default())
        };
        plan.tile = TileParams::default();
        plan.tuned_j = 32;
        plan.epoch = 3;
        encode_plan(&plan).expect("not degraded")
    }

    /// Length and CRC of the bytes before the trailer of four fixed
    /// records, pinned from the per-element codec and the bytewise CRC:
    /// the record bytes and the CRC values must never move.
    #[test]
    fn golden_records_keep_their_exact_bytes() {
        let records = [
            golden_record::<f32>(true),
            golden_record::<f64>(true),
            golden_record::<f32>(false),
            golden_record::<f64>(false),
        ];
        let got = records
            .each_ref()
            .map(|r| (r.len(), crc32_bytewise(&r[..r.len() - 4])));
        let want = [
            (1923, 0x9cfa_de0e),
            (2575, 0x95ab_2415),
            (1601, 0x3ff3_25fc),
            (2201, 0x332d_3bec),
        ];
        assert_eq!(got, want);
        for r in &records {
            let trailer = u32::from_le_bytes(r[r.len() - 4..].try_into().expect("len 4"));
            assert_eq!(trailer, crc32_bytewise(&r[..r.len() - 4]));
        }
        let cell = decode_plan::<f64>(&records[1]).expect("golden CELL decodes");
        assert_eq!(cell.reconstruct_csr(), Ok(golden_csr::<f64>()));
        let csr = decode_plan::<f32>(&records[2]).expect("golden CSR decodes");
        assert_eq!(csr.reconstruct_csr(), Ok(golden_csr::<f32>()));
    }

    #[test]
    fn length_guard_rejects_oversized_claims() {
        let claim = u64::MAX.to_le_bytes();
        let mut r = ByteReader::new(&claim);
        assert!(matches!(r.len(1024, "n"), Err(CodecError::BadField("n"))));
    }
}
