//! The disk tier of the plan cache: a crash-safe, byte-budgeted record
//! store behind the sharded RAM LRU (DESIGN.md §13).
//!
//! A [`PlanStore`] keeps one file per `(fingerprint, j)` plan record in
//! a flat directory, and nothing else: the record files are the store's
//! only on-disk state. The serving engine demotes RAM-evicted CELL plans
//! here instead of dropping them, promotes records back on a RAM miss,
//! and warms the cache from the directory at startup — so a process
//! restart is no longer a cold-compose storm. Demotions reach the store
//! through the engine's write-behind queue: one background writer
//! publishes each queued record with [`PlanStore::put`].
//!
//! Placement metadata (use counts, recompose cost, recency) lives in
//! memory only. A reopened store starts every record at its file size
//! with no uses, cost or recency: under `CostAware` a restart ranks
//! records by size, smallest first; under `LruBytes` they all tie.
//!
//! ## Crash safety
//!
//! Every write is **atomic at the file level**: the record is written
//! to a `*.tmp` sibling, `fsync`ed, `rename`d into place, and the
//! directory `fsync`ed. A crash mid-write therefore
//! leaves either the old state or a stray `*.tmp` — never a readable
//! half-record under a final name. Stray temp files are swept on open.
//! Every write gets its own temp name, so concurrent writers (the
//! demotion writer, a back-pressured request, a snapshot) never rename
//! each other's temp files away.
//! On top of that, every record byte sits under exactly one CRC-32: the
//! fixed header carries its own, and the plan blob after it carries the
//! codec's (`liteform_core::codec`). So even bytes torn by layers below
//! the rename (bit rot, lying disks) are rejected, counted, and
//! recomposed — never served — and no byte is checksummed twice on
//! `put` or `get`.
//!
//! ## Record layout (store version 4)
//!
//! ```text
//! "LFPR" (4) | version u16 | fingerprint 7×u64 | j u64 | cost_ns u64
//!   | blob_len u64 | header crc32 u32 | blob (codec record, own CRC)
//! ```
//!
//! The header is 90 bytes. `open` reads only that much of each file,
//! checks it and takes the record's size from file metadata;
//! [`PlanStore::load`] reads the whole record and runs every check.
//!
//! A record larger than the whole disk budget is refused with a typed
//! `ResourceExhausted` before any other record is evicted for it.
//!
//! ## Placement
//!
//! What to keep on a full disk tier is a policy question with real
//! tension: pure LRU-by-bytes is scan-resistant and simple, but a plan
//! that is cheap to recompose is a poor use of budget compared to one
//! whose composition cost dwarfs its footprint.
//! [`Placement::retention_score`] ranks records under either policy —
//! last-used recency or frequency × recompose-cost per byte — selected
//! in the serve config.

use crate::fingerprint::Fingerprint;
use crate::lock;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::parallel::{default_workers, parallel_map};
use liteform_core::codec::{self, ByteReader, ByteWriter, CodecError};
use liteform_core::{LfError, LfResult, PreparedPlan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Record-file magic: "LFPR" (LiteForm Plan Record).
const RECORD_MAGIC: [u8; 4] = *b"LFPR";
/// Store format version.
///
/// History: v1 keyed records by the six-field fingerprint; v2 adds the
/// mutation epoch as a seventh key word (and the plan blob inside moved
/// to codec v2 for the same reason). v1 records predate epoch
/// versioning, so they cannot prove which mutation generation they
/// describe — they are refused at open (header sweep) and on read, and
/// deleted rather than migrated. v3 redefines the fingerprint's three
/// array hashes (independent lanes folded with the length), so a v2
/// key names no matrix the engine can look up any more; v2 records are
/// refused and deleted the same way. v4 moves the record CRC from a
/// trailer over the whole record to the fixed header alone: the plan
/// blob keeps its own codec CRC, so each byte is checked once. v3
/// records are refused and deleted like v2.
const STORE_VERSION: u16 = 4;
/// Header bytes the header CRC covers: magic, version, the seven
/// fingerprint words, `j`, `cost_ns` and `blob_len`.
const HEADER_BODY: usize = 4 + 2 + 7 * 8 + 3 * 8;
/// Bytes before a record's plan blob: the header and its CRC.
const RECORD_HEADER: usize = HEADER_BODY + 4;
/// Rejection label for records from a retired mutation epoch; the
/// engine matches on it (via [`is_stale_epoch`]) to split these out of
/// the generic corruption count.
const STALE_EPOCH: &str = "stale epoch";

/// Whether an error is the disk tier refusing a retired-epoch record
/// (as opposed to corruption or a key mismatch).
pub fn is_stale_epoch(err: &LfError) -> bool {
    matches!(err, LfError::PlanDecode(CodecError::BadField(s)) if *s == STALE_EPOCH)
}

/// Which placement/eviction policy the disk tier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Evict the least-recently-used record first, ignoring size and
    /// recompose cost.
    LruBytes,
    /// Evict the record with the lowest `(uses + 1) × recompose-cost /
    /// bytes` first: a frequently hit plan that is expensive to rebuild
    /// and small on disk is the last to go.
    CostAware,
}

/// Per-record accounting the placement policies rank on. It is kept in
/// memory only: a reopened store knows each record's size and nothing
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecordMeta {
    /// Record size on disk, bytes.
    pub bytes: u64,
    /// Times this record was promoted or warm-loaded (a proxy for
    /// request frequency at this tier).
    pub uses: u64,
    /// Measured wall-clock cost of composing this plan, nanoseconds —
    /// what a miss would re-pay.
    pub cost_ns: u64,
    /// Logical recency tick of the last touch.
    pub last_used: u64,
}

impl Placement {
    /// Retention score for a record on a full disk tier. Higher scores
    /// are kept; the lowest-scoring record is evicted first.
    pub fn retention_score(self, meta: &RecordMeta) -> f64 {
        match self {
            // Least-recently-used: the recency tick.
            Placement::LruBytes => meta.last_used as f64,
            // The compose work a byte of budget is expected to save.
            Placement::CostAware => {
                let bytes = meta.bytes.max(1) as f64;
                (meta.uses + 1) as f64 * meta.cost_ns.max(1) as f64 / bytes
            }
        }
    }
}

/// Disk-tier configuration (the serve config owns the user-facing
/// knobs; this is the resolved form the store runs on).
pub struct StoreConfig {
    /// Directory holding the record files.
    pub dir: PathBuf,
    /// Byte budget for record files. Exceeding it evicts records by
    /// placement score. `0` means unbounded.
    pub disk_budget_bytes: usize,
    /// The placement/eviction policy.
    pub placement: Placement,
}

struct StoreState {
    index: HashMap<(Fingerprint, usize), RecordMeta>,
    bytes: u64,
    tick: u64,
}

/// The disk tier: one record file per plan, atomic writes, strict
/// read-side validation.
pub struct PlanStore<T: AtomicScalar> {
    dir: PathBuf,
    budget: usize,
    placement: Placement,
    state: Mutex<StoreState>,
    /// Record files whose header was unreadable at open — removed and
    /// counted, so the warm path can report them as rejections.
    swept_corrupt: usize,
    _scalar: PhantomData<fn() -> T>,
}

fn io_err(what: &str, e: std::io::Error) -> LfError {
    LfError::ResourceExhausted {
        what: format!("plan store {what}: {e}"),
    }
}

/// `fsync` a directory so a just-renamed entry is durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Sequence number that makes every temp file name unique, so concurrent
/// writers of one record never share a temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically publish `bytes` at `path` (same-directory temp + fsync +
/// rename + directory fsync). The temp name is unique per write, so two
/// concurrent writes of the same path each rename their own complete
/// file and the last rename wins. Under the chaos tier, `torn_site` can
/// simulate a crash mid-write: a truncated temp file is left behind and
/// the rename never happens — exactly the on-disk state a real kill
/// would leave.
fn atomic_write(
    path: &Path,
    bytes: &[u8],
    #[allow(unused_variables)] torn_site: lf_check::chaos::ChaosSite,
) -> LfResult<()> {
    let dir = path.parent().expect("store paths always have a parent");
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{seq}.tmp"));
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
    #[cfg(feature = "chaos")]
    {
        if lf_check::chaos::decide(torn_site) {
            // Simulated crash: half the bytes reach the temp file, no
            // rename. The store's caller sees an error; a restart must
            // recover from exactly this state.
            let half = bytes.len() / 2;
            let _ = f.write_all(&bytes[..half]);
            let _ = f.sync_all();
            return Err(LfError::ResourceExhausted {
                what: format!("chaos: torn write at {}", torn_site.name()),
            });
        }
    }
    f.write_all(bytes).map_err(|e| io_err("write temp", e))?;
    f.sync_all().map_err(|e| io_err("fsync temp", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
    sync_dir(dir).map_err(|e| io_err("fsync dir", e))?;
    Ok(())
}

fn write_fingerprint(w: &mut ByteWriter, fp: &Fingerprint) {
    w.u64(fp.rows as u64);
    w.u64(fp.cols as u64);
    w.u64(fp.nnz as u64);
    w.u64(fp.row_structure);
    w.u64(fp.col_structure);
    w.u64(fp.values);
    w.u64(fp.epoch);
}

fn read_fingerprint(r: &mut ByteReader<'_>) -> Result<Fingerprint, CodecError> {
    Ok(Fingerprint {
        rows: r.len(usize::MAX >> 8, "fp rows")?,
        cols: r.len(usize::MAX >> 8, "fp cols")?,
        nnz: r.len(usize::MAX >> 8, "fp nnz")?,
        row_structure: r.u64()?,
        col_structure: r.u64()?,
        values: r.u64()?,
        epoch: r.u64()?,
    })
}

impl<T: AtomicScalar> PlanStore<T> {
    /// Open (or create) a store directory: sweep stray temp files from
    /// interrupted writes and index the record files present, each at
    /// its file size with no uses, cost or recency. Other files are
    /// ignored.
    ///
    /// Indexing reads only each record's fixed-size header (magic,
    /// version, header CRC, and a blob length that agrees with the file
    /// size) and takes the record's size from file metadata; the blob's
    /// CRC, structural bounds and the fingerprint re-check run when a
    /// record is actually loaded, so a corrupt blob costs its
    /// warm/promotion attempt, never the open.
    pub fn open(config: StoreConfig) -> LfResult<Self> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err("create dir", e))?;
        let mut state = StoreState {
            index: HashMap::new(),
            bytes: 0,
            tick: 0,
        };
        let mut swept_corrupt = 0usize;
        let entries = fs::read_dir(&config.dir).map_err(|e| io_err("read dir", e))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // A crash mid-write left this; the rename never happened
                // so nothing references it. Sweep it.
                let _ = fs::remove_file(&path);
                continue;
            }
            if !name.ends_with(".lfp") {
                continue;
            }
            let Ok(header) = read_header(&path) else {
                continue;
            };
            let Some((fp, j, record_bytes)) = header else {
                // Unreadable header under a final name: not a state an
                // atomic writer produces, so treat it as corruption and
                // remove it (counted, so warming can report it) rather
                // than re-reporting it every restart.
                let _ = fs::remove_file(&path);
                swept_corrupt += 1;
                continue;
            };
            let meta = RecordMeta {
                bytes: record_bytes,
                ..RecordMeta::default()
            };
            state.bytes += record_bytes;
            state.index.insert((fp, j), meta);
        }
        Ok(PlanStore {
            dir: config.dir,
            budget: config.disk_budget_bytes,
            placement: config.placement,
            state: Mutex::new(state),
            swept_corrupt,
            _scalar: PhantomData,
        })
    }

    /// Record files removed at open because their header was
    /// unreadable (wrong magic/version or truncated before the key).
    pub fn swept_corrupt(&self) -> usize {
        self.swept_corrupt
    }

    /// Bytes currently held in record files.
    pub fn bytes(&self) -> u64 {
        lock(&self.state).bytes
    }

    /// Number of records currently indexed.
    pub fn records(&self) -> usize {
        lock(&self.state).index.len()
    }

    fn record_path(&self, fp: &Fingerprint, j: usize) -> PathBuf {
        self.dir.join(format!("p{:016x}-{j}.lfp", fp.digest()))
    }

    /// Demote a plan to disk: publish its record atomically. Evicts
    /// lowest-scoring records to fit the byte budget first; a record
    /// larger than the whole budget is refused before anything is
    /// evicted. On any failure the store's on-disk state is either
    /// untouched or missing only evicted records — never torn.
    pub fn put(
        &self,
        fp: &Fingerprint,
        j: usize,
        plan: &PreparedPlan<T>,
        cost_ns: u64,
        uses: u64,
    ) -> LfResult<()> {
        // A record whose key epoch disagrees with the plan's own stamp
        // would fail read-side validation anyway; refuse to write it.
        if plan.epoch != fp.epoch {
            return Err(LfError::PlanDecode(CodecError::BadField(STALE_EPOCH)));
        }
        let blob = codec::encode_plan(plan)?;
        let mut record = ByteWriter::with_capacity(RECORD_HEADER + blob.len());
        record.bytes(&RECORD_MAGIC);
        record.u16(STORE_VERSION);
        write_fingerprint(&mut record, fp);
        record.u64(j as u64);
        record.u64(cost_ns);
        record.u64(blob.len() as u64);
        // The header CRC covers the header only; the blob carries its own.
        record.crc_trailer();
        record.bytes(&blob);
        let record = record.into_bytes();
        if self.budget > 0 && record.len() > self.budget {
            // Evicting every other record would still not make room.
            return Err(LfError::ResourceExhausted {
                what: format!(
                    "plan store: a {}-byte record exceeds the {}-byte disk budget",
                    record.len(),
                    self.budget
                ),
            });
        }

        // Make room first (under the index lock; file deletion is
        // idempotent so a crash between delete and insert only shrinks
        // the tier).
        let mut victims = Vec::new();
        {
            let mut st = lock(&self.state);
            st.tick += 1;
            let tick = st.tick;
            if self.budget > 0 {
                let incoming = record.len() as u64;
                while st.bytes + incoming > self.budget as u64 && !st.index.is_empty() {
                    let victim = st
                        .index
                        .iter()
                        .filter(|(k, _)| **k != (*fp, j))
                        .min_by(|a, b| {
                            self.placement
                                .retention_score(a.1)
                                .total_cmp(&self.placement.retention_score(b.1))
                        })
                        .map(|(k, _)| *k);
                    let Some(key) = victim else { break };
                    let e = st.index.remove(&key).expect("victim indexed");
                    st.bytes -= e.bytes;
                    victims.push(key);
                }
            }
            // Replace-in-place accounting: an existing record for this
            // key is about to be overwritten.
            if let Some(old) = st.index.remove(&(*fp, j)) {
                st.bytes -= old.bytes;
            }
            st.bytes += record.len() as u64;
            st.index.insert(
                (*fp, j),
                RecordMeta {
                    bytes: record.len() as u64,
                    uses,
                    cost_ns,
                    last_used: tick,
                },
            );
        }
        for (vfp, vj) in &victims {
            let _ = fs::remove_file(self.record_path(vfp, *vj));
        }
        let path = self.record_path(fp, j);
        if let Err(e) = atomic_write(&path, &record, lf_check::chaos::ChaosSite::DemoteTorn) {
            // The record never became visible: roll the index back.
            let mut st = lock(&self.state);
            if let Some(old) = st.index.remove(&(*fp, j)) {
                st.bytes -= old.bytes;
            }
            return Err(e);
        }
        Ok(())
    }

    /// Whether a record for `(fp, j)` is indexed.
    pub(crate) fn holds(&self, fp: &Fingerprint, j: usize) -> bool {
        lock(&self.state).index.contains_key(&(*fp, j))
    }

    /// Load a record, fully validated, and do the store's bookkeeping
    /// for it: [`load`](Self::load), then [`settle`](Self::settle). Any
    /// failure deletes the record and returns the typed rejection;
    /// `Ok(None)` is a clean miss.
    pub fn get(
        &self,
        fp: &Fingerprint,
        j: usize,
    ) -> LfResult<Option<(PreparedPlan<T>, RecordMeta)>> {
        self.settle(fp, j, self.load(fp, j))
    }

    /// Read and validate the record for `(fp, j)` with no side effect on
    /// the store: header CRC, key and epoch equality, plan-blob decode
    /// (its own CRC + structural bounds), and a **fingerprint re-check**
    /// — the decoded plan's operand is reconstructed and
    /// re-fingerprinted, proving the record still describes the matrix
    /// it claims. `Ok(None)` means no record is indexed or its file
    /// could not be read. Loads of distinct keys may run concurrently;
    /// hand each result to [`settle`](Self::settle).
    pub fn load(&self, fp: &Fingerprint, j: usize) -> LfResult<Option<PreparedPlan<T>>> {
        if !self.holds(fp, j) {
            return Ok(None);
        }
        // Indexed but unreadable (raced removal, IO error) is a miss;
        // `settle` drops the index entry.
        let Ok(bytes) = fs::read(self.record_path(fp, j)) else {
            return Ok(None);
        };
        self.validate_record(&bytes, fp, j).map(Some)
    }

    /// The bookkeeping half of [`get`](Self::get) for a [`load`](Self::load)
    /// result: a valid plan counts one more use and takes a fresh recency
    /// tick; a miss drops any index entry for the key; a rejection
    /// deletes the record. Call it in the order the loads should count.
    pub fn settle(
        &self,
        fp: &Fingerprint,
        j: usize,
        loaded: LfResult<Option<PreparedPlan<T>>>,
    ) -> LfResult<Option<(PreparedPlan<T>, RecordMeta)>> {
        match loaded {
            Ok(None) => {
                self.forget(fp, j);
                Ok(None)
            }
            Ok(Some(plan)) => {
                let mut st = lock(&self.state);
                st.tick += 1;
                let tick = st.tick;
                let meta = match st.index.get_mut(&(*fp, j)) {
                    Some(e) => {
                        e.uses += 1;
                        e.last_used = tick;
                        *e
                    }
                    None => RecordMeta::default(),
                };
                Ok(Some((plan, meta)))
            }
            Err(e) => {
                // Rejection is terminal for the record: corrupted bytes
                // are never re-tried, never served.
                let _ = fs::remove_file(self.record_path(fp, j));
                self.forget(fp, j);
                Err(e)
            }
        }
    }

    /// Parse and strictly validate one record against the key it is
    /// expected to hold.
    fn validate_record(
        &self,
        bytes: &[u8],
        fp: &Fingerprint,
        j: usize,
    ) -> LfResult<PreparedPlan<T>> {
        let (stored_fp, stored_j, blob) = parse_record(bytes)?;
        if stored_fp != *fp || stored_j != j {
            // A record that matches in every field *except* the epoch is
            // a plan from a retired generation of this matrix — the one
            // state the epoch protocol exists to refuse. Classify it
            // separately so the engine can count it as a stale eviction
            // rather than generic corruption.
            if stored_j == j && stored_fp.with_epoch(fp.epoch) == *fp {
                return Err(LfError::PlanDecode(CodecError::BadField(STALE_EPOCH)));
            }
            return Err(LfError::PlanDecode(CodecError::BadField(
                "record key mismatch",
            )));
        }
        let plan = codec::decode_plan::<T>(blob)?;
        // The epoch stamped inside the plan blob must agree with the
        // record key: a blob spliced from another generation passes its
        // own CRC but not this check.
        if plan.epoch != fp.epoch {
            return Err(LfError::PlanDecode(CodecError::BadField(STALE_EPOCH)));
        }
        // Fingerprint re-check: the plan's buckets must still encode the
        // exact matrix the record is keyed by. This catches records that
        // pass both CRCs but were written for a different matrix (or a
        // stale version of this one). The reconstruction carries no
        // epoch, so align it before comparing content.
        let refp = Fingerprint::of_csr(&plan.reconstruct_csr()?);
        if refp.with_epoch(fp.epoch) != *fp {
            return Err(LfError::PlanDecode(CodecError::BadField(
                "stale fingerprint",
            )));
        }
        Ok(plan)
    }

    /// Remove a record (quarantine purge, or explicit invalidation).
    pub fn remove(&self, fp: &Fingerprint, j: usize) {
        let _ = fs::remove_file(self.record_path(fp, j));
        self.forget(fp, j);
    }

    /// Remove **every** record keyed by `fp` (all batch widths) — the
    /// disk half of retiring an epoch. Returns how many records were
    /// dropped. File deletion is idempotent, so a crash part-way merely
    /// leaves records the next sweep (or read-side validation) retires.
    pub fn remove_matrix(&self, fp: &Fingerprint) -> usize {
        let keys: Vec<usize> = {
            let st = lock(&self.state);
            st.index
                .keys()
                .filter(|(f, _)| f == fp)
                .map(|&(_, j)| j)
                .collect()
        };
        for &j in &keys {
            let _ = fs::remove_file(self.record_path(fp, j));
            self.forget(fp, j);
        }
        keys.len()
    }

    fn forget(&self, fp: &Fingerprint, j: usize) {
        let mut st = lock(&self.state);
        if let Some(e) = st.index.remove(&(*fp, j)) {
            st.bytes -= e.bytes;
        }
    }

    /// The keys currently on disk, highest retention score first — the
    /// order cache warming should load them in.
    pub fn warm_order(&self) -> Vec<((Fingerprint, usize), RecordMeta)> {
        let st = lock(&self.state);
        let mut keys: Vec<_> = st.index.iter().map(|(k, e)| (*k, *e)).collect();
        keys.sort_by(|a, b| {
            self.placement
                .retention_score(&b.1)
                .total_cmp(&self.placement.retention_score(&a.1))
        });
        keys
    }

    /// Every key in [`warm_order`](Self::warm_order) with its
    /// [`load`](Self::load) result, in that order. Loads run a wave of
    /// one record per core at a time in one pool region; the caller
    /// [`settle`](Self::settle)s each result in order. Stopping early
    /// wastes at most the rest of a wave's decodes and leaves the store
    /// untouched.
    pub fn warm_loads(&self) -> WarmLoads<'_, T> {
        WarmLoads {
            store: self,
            order: self
                .warm_order()
                .into_iter()
                .map(|(key, _)| key)
                .collect::<Vec<_>>()
                .into_iter(),
            wave: Vec::new().into_iter(),
            width: default_workers(),
        }
    }
}

/// A record key and its [`PlanStore::load`] result.
pub type WarmLoad<T> = ((Fingerprint, usize), LfResult<Option<PreparedPlan<T>>>);

/// The iterator [`PlanStore::warm_loads`] returns.
pub struct WarmLoads<'a, T: AtomicScalar> {
    store: &'a PlanStore<T>,
    /// Keys not yet loaded, in warm order.
    order: std::vec::IntoIter<(Fingerprint, usize)>,
    /// The loaded wave not yet handed out.
    wave: std::vec::IntoIter<WarmLoad<T>>,
    /// Records per wave: one per core.
    width: usize,
}

impl<T: AtomicScalar> Iterator for WarmLoads<'_, T> {
    type Item = WarmLoad<T>;

    fn next(&mut self) -> Option<WarmLoad<T>> {
        if let Some(item) = self.wave.next() {
            return Some(item);
        }
        let keys: Vec<(Fingerprint, usize)> = self.order.by_ref().take(self.width).collect();
        let store = self.store;
        let loads = parallel_map(keys.len(), self.width, |i| {
            let (fp, j) = &keys[i];
            store.load(fp, *j)
        });
        self.wave = keys.into_iter().zip(loads).collect::<Vec<_>>().into_iter();
        self.wave.next()
    }
}

/// Parse and check a record header — magic, version, then the header
/// CRC before any field is trusted — returning the key and the blob
/// length it promises. `bytes` may run past the header.
fn parse_header(bytes: &[u8]) -> Result<(Fingerprint, usize, u64), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != RECORD_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != STORE_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let mut fields = ByteReader::new(r.bytes(HEADER_BODY - 6)?);
    let stored_crc = r.u32()?;
    if codec::crc32(&bytes[..HEADER_BODY]) != stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    let fp = read_fingerprint(&mut fields)?;
    let j = fields.len(usize::MAX >> 8, "record j")?;
    let _cost_ns = fields.u64()?;
    let blob_len = fields.u64()?;
    Ok((fp, j, blob_len))
}

/// Parse a whole record: the checked header, then a blob of exactly the
/// promised length (the blob's own CRC is the codec's to check).
fn parse_record(bytes: &[u8]) -> Result<(Fingerprint, usize, &[u8]), LfError> {
    let (fp, j, blob_len) = parse_header(bytes).map_err(LfError::PlanDecode)?;
    let blob = bytes.get(RECORD_HEADER..).unwrap_or_default();
    if blob.len() as u64 != blob_len {
        return Err(LfError::PlanDecode(CodecError::BadField("record length")));
    }
    Ok((fp, j, blob))
}

/// Read just a record file's header, for indexing on open. `Err` is an
/// I/O failure (the file is skipped); `Ok(None)` is a header that fails
/// its checks or disagrees with the file's size (the file is corrupt);
/// otherwise the key and the record's size on disk.
fn read_header(path: &Path) -> std::io::Result<Option<(Fingerprint, usize, u64)>> {
    let mut file = fs::File::open(path)?;
    let size = file.metadata()?.len();
    let mut header = [0u8; RECORD_HEADER];
    match file.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    Ok(parse_header(&header)
        .ok()
        .filter(|&(_, _, blob_len)| size.checked_sub(RECORD_HEADER as u64) == Some(blob_len))
        .map(|(fp, j, _)| (fp, j, size)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_scores_rank_as_documented() {
        let cheap_big = RecordMeta {
            bytes: 1 << 20,
            uses: 0,
            cost_ns: 1_000,
            last_used: 10,
        };
        let dear_small = RecordMeta {
            bytes: 1 << 10,
            uses: 5,
            cost_ns: 50_000_000,
            last_used: 1,
        };
        // LRU keeps the recently used one regardless of value.
        let lru = Placement::LruBytes;
        assert!(lru.retention_score(&cheap_big) > lru.retention_score(&dear_small));
        // Cost-aware keeps the hot, expensive, small one.
        let cost = Placement::CostAware;
        assert!(
            cost.retention_score(&dear_small) > cost.retention_score(&cheap_big),
            "cost-aware must rank recompose value per byte"
        );
    }
}
