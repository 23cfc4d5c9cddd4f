//! Append-only on-disk segment store behind the result cache: the
//! paper's amortisation argument extended across process restarts.
//!
//! Layout: a directory of `seg-NNNNNNNN.log` files. Each segment opens
//! with a 12-byte header — magic, store format version, wire
//! `schema_version` — and continues with checksummed records:
//!
//! ```text
//! header:  "RDST" ++ store_version:u32be ++ protocol_version:u32be
//! record:  body_len:u32be ++ fnv64(body):u64be ++ body
//! body:    key:u128be ++ kind:u8 ++ payload
//! kind:    0 = ok outcome, 1 = error outcome, 2 = tombstone
//! ```
//!
//! Durability model — it is a **cache**, so recovery may drop the tail
//! but must never serve a torn record: appends land in a write-behind
//! buffer, flushed at a size threshold and force-flushed (with fsync) on
//! graceful drain. Startup scans every segment, verifies each record's
//! checksum, truncates at the first torn/corrupt record, and rebuilds
//! the key index last-record-wins; a tombstone (written by calibration
//! invalidation) deletes through. Segments whose header carries a
//! different store or wire version are discarded whole — a stale format
//! must read as cold, never as garbage.
//!
//! Compaction rewrites the live record set into a fresh segment and
//! unlinks the old ones once dead bytes outweigh live ones.

use crate::cache::CachedOutcome;
use crate::proto::{ErrorCode, PROTOCOL_VERSION};
use reorder::RunStats;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Bump when the record encoding changes — or when the pipeline's output
/// for an unchanged content key changes (the key hashes the *input*, so
/// a pipeline behaviour change must version the store to avoid serving
/// stale bytes). Version 2: the calibration engine left the cache key,
/// so every version-1 record sits under a key nothing looks up.
pub const STORE_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"RDST";
const HEADER_LEN: u64 = 12;
/// Write-behind buffer flush threshold.
const FLUSH_THRESHOLD: usize = 256 * 1024;
/// Compact once dead bytes outweigh live ones and exceed this floor.
const COMPACT_MIN_DEAD: u64 = 256 * 1024;

const KIND_OK: u8 = 0;
const KIND_ERR: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;

/// Monotonic store counters plus size gauges, surfaced in the `stats`
/// reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Live (indexed) entries.
    pub entries: u64,
    pub segments: u64,
    pub live_bytes: u64,
    pub dead_bytes: u64,
    pub appends: u64,
    pub flushes: u64,
    pub compactions: u64,
    /// Bytes dropped by recovery truncation at the last open.
    pub recovered_dropped_bytes: u64,
}

struct Loc {
    segment: u64,
    /// Offset of the record start (the length word).
    offset: u64,
    /// Whole record length (header word + checksum + body).
    len: u64,
}

struct Inner {
    active: File,
    active_id: u64,
    /// Committed bytes in the active segment (excludes `pending`).
    active_len: u64,
    /// Write-behind buffer: encoded records not yet written to the file.
    pending: Vec<u8>,
    index: HashMap<u128, Loc>,
    /// All segment ids on disk (active last).
    segment_ids: Vec<u64>,
    live_bytes: u64,
    dead_bytes: u64,
    appends: u64,
    flushes: u64,
    compactions: u64,
    recovered_dropped_bytes: u64,
}

/// The persistent tier. All methods take `&self`; one mutex serialises
/// writers (reads of flushed records use positional I/O under the same
/// lock — correctness over parallel-read throughput, which the in-memory
/// tier provides anyway).
pub struct DiskStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl DiskStore {
    /// Opens (creating if needed) the store at `dir`, scanning segments
    /// for recovery and rebuilding the index.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut ids: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| segment_id(&e.file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();

        let mut index: HashMap<u128, Loc> = HashMap::new();
        let mut live_bytes = 0u64;
        let mut dead_bytes = 0u64;
        let mut recovered_dropped_bytes = 0u64;
        let mut kept_ids = Vec::new();
        for &id in &ids {
            let path = segment_path(&dir, id);
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            if !header_matches(&mut file)? {
                // Foreign format version: the whole segment is cold.
                drop(file);
                let _ = std::fs::remove_file(&path);
                continue;
            }
            let valid_end =
                scan_segment(&mut file, id, &mut index, &mut live_bytes, &mut dead_bytes)?;
            let file_len = file.metadata()?.len();
            if valid_end < file_len {
                recovered_dropped_bytes += file_len - valid_end;
                file.set_len(valid_end)?;
            }
            kept_ids.push(id);
        }

        let active_id = kept_ids.last().copied().map_or(1, |last| last);
        let active_path = segment_path(&dir, active_id);
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&active_path)?;
        let mut active_len = active.metadata()?.len();
        if active_len < HEADER_LEN {
            active.set_len(0)?;
            write_header(&mut active)?;
            active_len = HEADER_LEN;
        }
        active.seek(SeekFrom::End(0))?;
        if kept_ids.last() != Some(&active_id) {
            kept_ids.push(active_id);
        }

        Ok(DiskStore {
            dir,
            inner: Mutex::new(Inner {
                active,
                active_id,
                active_len,
                pending: Vec::new(),
                index,
                segment_ids: kept_ids,
                live_bytes,
                dead_bytes,
                appends: 0,
                flushes: 0,
                compactions: 0,
                recovered_dropped_bytes,
            }),
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock poisoned").index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            entries: inner.index.len() as u64,
            segments: inner.segment_ids.len() as u64,
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes,
            appends: inner.appends,
            flushes: inner.flushes,
            compactions: inner.compactions,
            recovered_dropped_bytes: inner.recovered_dropped_bytes,
        }
    }

    pub fn contains(&self, key: u128) -> bool {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .index
            .contains_key(&key)
    }

    /// Reads `key`'s outcome back, or `None` when absent. A record that
    /// fails its checksum on read is treated as absent (and dropped from
    /// the index) — a disk cache may lose entries, never serve bad ones.
    pub fn get(&self, key: u128) -> Option<CachedOutcome> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let loc = inner.index.get(&key)?;
        let (segment, offset, len) = (loc.segment, loc.offset, loc.len);
        let record = if segment == inner.active_id && offset >= inner.active_len {
            // Still in the write-behind buffer.
            let start = (offset - inner.active_len) as usize;
            inner.pending.get(start..start + len as usize)?.to_vec()
        } else {
            let mut buf = vec![0u8; len as usize];
            let file = match self.open_segment(&inner, segment) {
                Ok(f) => f,
                Err(_) => return None,
            };
            if file.read_exact_at(&mut buf, offset).is_err() {
                inner.index.remove(&key);
                return None;
            }
            buf
        };
        match decode_record(&record) {
            Some((record_key, Some(outcome))) if record_key == key => Some(outcome),
            _ => {
                inner.index.remove(&key);
                None
            }
        }
    }

    /// Appends `key -> outcome` (write-behind; flushed at the threshold).
    pub fn put(&self, key: u128, outcome: &CachedOutcome) {
        let Some(body) = encode_outcome_body(key, outcome) else {
            return; // non-persistable outcome class
        };
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.append_locked(&mut inner, key, body, false);
    }

    /// Deletes through with a tombstone. Returns whether a live entry
    /// was removed.
    pub fn remove(&self, key: u128) -> bool {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if !inner.index.contains_key(&key) {
            return false;
        }
        let mut body = Vec::with_capacity(17);
        body.extend_from_slice(&key.to_be_bytes());
        body.push(KIND_TOMBSTONE);
        self.append_locked(&mut inner, key, body, true);
        true
    }

    /// Forces the write-behind buffer to disk and fsyncs — the graceful
    /// drain path, and the reason a SIGTERM'd daemon restarts warm.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        flush_locked(&mut inner)?;
        inner.active.sync_data()
    }

    fn append_locked(&self, inner: &mut Inner, key: u128, body: Vec<u8>, tombstone: bool) {
        let record = encode_record(&body);
        let record_len = record.len() as u64;
        let offset = inner.active_len + inner.pending.len() as u64;
        if let Some(old) = inner.index.remove(&key) {
            inner.dead_bytes += old.len;
            inner.live_bytes = inner.live_bytes.saturating_sub(old.len);
        }
        inner.pending.extend_from_slice(&record);
        inner.appends += 1;
        if tombstone {
            // The tombstone itself is dead weight from birth.
            inner.dead_bytes += record_len;
        } else {
            inner.index.insert(
                key,
                Loc {
                    segment: inner.active_id,
                    offset,
                    len: record_len,
                },
            );
            inner.live_bytes += record_len;
        }
        if inner.pending.len() >= FLUSH_THRESHOLD {
            let _ = flush_locked(inner);
        }
        self.maybe_compact_locked(inner);
    }

    fn open_segment(&self, inner: &Inner, id: u64) -> io::Result<File> {
        if id == inner.active_id {
            inner.active.try_clone()
        } else {
            File::open(segment_path(&self.dir, id))
        }
    }

    fn maybe_compact_locked(&self, inner: &mut Inner) {
        if inner.dead_bytes < COMPACT_MIN_DEAD || inner.dead_bytes <= inner.live_bytes {
            return;
        }
        if flush_locked(inner).is_err() {
            return;
        }
        if let Err(e) = self.compact_locked(inner) {
            // Compaction is an optimisation; a failed attempt leaves the
            // old segments intact and correct.
            eprintln!("reordd store: compaction failed (ignored): {e}");
        }
    }

    /// Rewrites the live set into a fresh segment, then unlinks the old
    /// ones. Crash-safe: the new segment is fsynced before anything is
    /// deleted, and recovery's last-record-wins order is preserved
    /// because live records only ever move forward into higher ids.
    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let new_id = inner.segment_ids.iter().copied().max().unwrap_or(0) + 1;
        let new_path = segment_path(&self.dir, new_id);
        let mut new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&new_path)?;
        write_header(&mut new_file)?;
        let mut new_len = HEADER_LEN;

        let mut keys: Vec<u128> = inner.index.keys().copied().collect();
        keys.sort_unstable(); // deterministic layout
        let mut new_index: HashMap<u128, Loc> = HashMap::with_capacity(keys.len());
        let mut live_bytes = 0u64;
        for key in keys {
            let loc = &inner.index[&key];
            let mut record = vec![0u8; loc.len as usize];
            let file = self.open_segment(inner, loc.segment)?;
            file.read_exact_at(&mut record, loc.offset)?;
            if decode_record(&record).is_none() {
                continue; // checksum rot: drop rather than copy garbage
            }
            new_file.write_all(&record)?;
            new_index.insert(
                key,
                Loc {
                    segment: new_id,
                    offset: new_len,
                    len: loc.len,
                },
            );
            new_len += loc.len;
            live_bytes += loc.len;
        }
        new_file.sync_data()?;

        let old_ids = std::mem::take(&mut inner.segment_ids);
        for id in old_ids {
            let _ = std::fs::remove_file(segment_path(&self.dir, id));
        }
        new_file.seek(SeekFrom::End(0))?;
        inner.active = new_file;
        inner.active_id = new_id;
        inner.active_len = new_len;
        inner.pending.clear();
        inner.index = new_index;
        inner.segment_ids = vec![new_id];
        inner.live_bytes = live_bytes;
        inner.dead_bytes = 0;
        inner.compactions += 1;
        Ok(())
    }
}

fn flush_locked(inner: &mut Inner) -> io::Result<()> {
    if inner.pending.is_empty() {
        return Ok(());
    }
    if let Err(e) = inner.active.write_all(&inner.pending) {
        // A write that failed part-way (disk full, file-size limit) left
        // a torn prefix of `pending` past `active_len`. Cut it off so the
        // retry writes `pending` where the index already placed it.
        inner.active.set_len(inner.active_len)?;
        inner.active.seek(SeekFrom::Start(inner.active_len))?;
        return Err(e);
    }
    inner.active_len += inner.pending.len() as u64;
    inner.pending.clear();
    inner.flushes += 1;
    Ok(())
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn write_header(file: &mut File) -> io::Result<()> {
    file.write_all(MAGIC)?;
    file.write_all(&STORE_VERSION.to_be_bytes())?;
    file.write_all(&(PROTOCOL_VERSION as u32).to_be_bytes())
}

/// Reads and validates a segment header, leaving the cursor past it.
fn header_matches(file: &mut File) -> io::Result<bool> {
    let mut header = [0u8; HEADER_LEN as usize];
    file.seek(SeekFrom::Start(0))?;
    if file.read_exact(&mut header).is_err() {
        return Ok(false); // shorter than a header: discard
    }
    Ok(&header[0..4] == MAGIC
        && header[4..8] == STORE_VERSION.to_be_bytes()
        && header[8..12] == (PROTOCOL_VERSION as u32).to_be_bytes())
}

/// Scans one segment's records into the index (last record wins),
/// returning the offset of the first invalid byte — the recovery
/// truncation point.
fn scan_segment(
    file: &mut File,
    segment: u64,
    index: &mut HashMap<u128, Loc>,
    live_bytes: &mut u64,
    dead_bytes: &mut u64,
) -> io::Result<u64> {
    let file_len = file.metadata()?.len();
    let mut offset = HEADER_LEN;
    while offset < file_len {
        if offset + 12 > file_len {
            break; // torn length/checksum words
        }
        let mut word = [0u8; 4];
        file.read_exact_at(&mut word, offset)?;
        let body_len = u32::from_be_bytes(word) as u64;
        let record_len = 12 + body_len;
        if offset + record_len > file_len {
            break; // torn body
        }
        let mut record = vec![0u8; record_len as usize];
        file.read_exact_at(&mut record, offset)?;
        let Some((key, outcome)) = decode_record(&record) else {
            break; // checksum or encoding mismatch: stop trusting the tail
        };
        if let Some(old) = index.remove(&key) {
            *dead_bytes += old.len;
            *live_bytes = live_bytes.saturating_sub(old.len);
        }
        match outcome {
            Some(_) => {
                index.insert(
                    key,
                    Loc {
                        segment,
                        offset,
                        len: record_len,
                    },
                );
                *live_bytes += record_len;
            }
            None => *dead_bytes += record_len, // tombstone
        }
        offset += record_len;
    }
    Ok(offset)
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_record(body: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(12 + body.len());
    record.extend_from_slice(&(body.len() as u32).to_be_bytes());
    record.extend_from_slice(&fnv64(body).to_be_bytes());
    record.extend_from_slice(body);
    record
}

/// `None` for outcome classes that must not persist: overload/timeouts
/// are transient server states, not properties of the program.
fn encode_outcome_body(key: u128, outcome: &CachedOutcome) -> Option<Vec<u8>> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&key.to_be_bytes());
    match outcome {
        CachedOutcome::Ok {
            program,
            stats,
            cost_us,
        } => {
            body.push(KIND_OK);
            body.extend_from_slice(&cost_us.to_be_bytes());
            push_bytes(&mut body, program.as_bytes());
            for field in stats_fields(stats) {
                body.extend_from_slice(&field.to_be_bytes());
            }
        }
        CachedOutcome::Err {
            code,
            message,
            line,
            col,
        } => {
            let code_byte = match code {
                ErrorCode::Parse => 0u8,
                ErrorCode::Panic => 1u8,
                // Transient classes never persist.
                _ => return None,
            };
            body.push(KIND_ERR);
            body.push(code_byte);
            body.extend_from_slice(&line.to_be_bytes());
            body.extend_from_slice(&col.to_be_bytes());
            push_bytes(&mut body, message.as_bytes());
        }
    }
    Some(body)
}

/// `Some((key, Some(outcome)))` for a value record, `Some((key, None))`
/// for a tombstone, `None` when the record is torn or corrupt.
fn decode_record(record: &[u8]) -> Option<(u128, Option<CachedOutcome>)> {
    if record.len() < 12 {
        return None;
    }
    let body_len = u32::from_be_bytes(record[0..4].try_into().ok()?) as usize;
    if record.len() != 12 + body_len {
        return None;
    }
    let checksum = u64::from_be_bytes(record[4..12].try_into().ok()?);
    let body = &record[12..];
    if fnv64(body) != checksum {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    let key = u128::from_be_bytes(r.take(16)?.try_into().ok()?);
    let kind = r.take(1)?[0];
    let outcome = match kind {
        KIND_TOMBSTONE => None,
        KIND_OK => {
            let cost_us = r.u64()?;
            let program = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let mut fields = [0u64; STATS_FIELDS];
            for field in &mut fields {
                *field = r.u64()?;
            }
            Some(CachedOutcome::Ok {
                program,
                stats: stats_from_fields(&fields),
                cost_us,
            })
        }
        KIND_ERR => {
            let code = match r.take(1)?[0] {
                0 => ErrorCode::Parse,
                1 => ErrorCode::Panic,
                _ => return None,
            };
            let line = u32::from_be_bytes(r.take(4)?.try_into().ok()?);
            let col = u32::from_be_bytes(r.take(4)?.try_into().ok()?);
            let message = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            Some(CachedOutcome::Err {
                code,
                message,
                line,
                col,
            })
        }
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some((key, outcome))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_be_bytes(self.take(4)?.try_into().ok()?) as usize;
        self.take(len)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

const STATS_FIELDS: usize = 14;

/// `RunStats` as a fixed field vector (durations in microseconds), the
/// same order `RunStats::to_json` emits.
fn stats_fields(stats: &RunStats) -> [u64; STATS_FIELDS] {
    [
        stats.jobs as u64,
        stats.tasks as u64,
        stats.planning.as_micros() as u64,
        stats.reordering.as_micros() as u64,
        stats.emission.as_micros() as u64,
        stats.total.as_micros() as u64,
        stats.orders_explored as u64,
        stats.orders_rejected as u64,
        stats.estimate_hits,
        stats.estimate_misses,
        stats.chain_hits,
        stats.chain_misses,
        stats.mode_hits,
        stats.mode_misses,
    ]
}

fn stats_from_fields(f: &[u64; STATS_FIELDS]) -> RunStats {
    RunStats {
        jobs: f[0] as usize,
        tasks: f[1] as usize,
        planning: Duration::from_micros(f[2]),
        reordering: Duration::from_micros(f[3]),
        emission: Duration::from_micros(f[4]),
        total: Duration::from_micros(f[5]),
        orders_explored: f[6] as usize,
        orders_rejected: f[7] as usize,
        estimate_hits: f[8],
        estimate_misses: f[9],
        chain_hits: f[10],
        chain_misses: f[11],
        mode_hits: f[12],
        mode_misses: f[13],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "reordd-store-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ok_outcome(text: &str) -> CachedOutcome {
        CachedOutcome::Ok {
            program: text.to_string(),
            stats: RunStats {
                tasks: 3,
                total: Duration::from_micros(1234),
                chain_hits: 9,
                ..Default::default()
            },
            cost_us: 42,
        }
    }

    fn program_of(outcome: &CachedOutcome) -> &str {
        match outcome {
            CachedOutcome::Ok { program, .. } => program,
            CachedOutcome::Err { message, .. } => message,
        }
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("p(a)."));
            store.put(2, &ok_outcome("q(b)."));
            store.put(
                3,
                &CachedOutcome::Err {
                    code: ErrorCode::Parse,
                    message: "parse error at 1:3: boom".into(),
                    line: 1,
                    col: 3,
                },
            );
            store.flush().unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(program_of(&store.get(1).unwrap()), "p(a).");
        assert_eq!(program_of(&store.get(2).unwrap()), "q(b).");
        match store.get(3).unwrap() {
            CachedOutcome::Err {
                code, line, col, ..
            } => {
                assert_eq!(code, ErrorCode::Parse);
                assert_eq!((line, col), (1, 3));
            }
            other => panic!("expected error outcome, got {other:?}"),
        }
        // RunStats fields survive the binary roundtrip.
        match store.get(1).unwrap() {
            CachedOutcome::Ok { stats, cost_us, .. } => {
                assert_eq!(stats.tasks, 3);
                assert_eq!(stats.total, Duration::from_micros(1234));
                assert_eq!(stats.chain_hits, 9);
                assert_eq!(cost_us, 42);
            }
            other => panic!("expected ok outcome, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_writes_are_readable_and_lost_on_crash() {
        let dir = temp_dir("writebehind");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(7, &ok_outcome("pending."));
            // Readable straight from the write-behind buffer.
            assert_eq!(program_of(&store.get(7).unwrap()), "pending.");
            // Dropped without flush: a crash loses the tail, safely.
        }
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.get(7).is_none(), "unflushed write must read as cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_record_wins_and_tombstones_delete_through() {
        let dir = temp_dir("tombstone");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("old."));
            store.put(1, &ok_outcome("new."));
            store.put(2, &ok_outcome("doomed."));
            assert!(store.remove(2));
            assert!(!store.remove(2), "second remove is a no-op");
            store.flush().unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(program_of(&store.get(1).unwrap()), "new.");
        assert!(store.get(2).is_none(), "tombstone persists the deletion");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_a_torn_tail_but_keeps_the_prefix() {
        let dir = temp_dir("torn");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("safe."));
            store.put(2, &ok_outcome("victim."));
            store.flush().unwrap();
        }
        // Tear the last record: chop 3 bytes off the segment.
        let seg = segment_path(&dir, 1);
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(program_of(&store.get(1).unwrap()), "safe.");
        assert!(store.get(2).is_none(), "torn record reads as cold");
        assert!(store.stats().recovered_dropped_bytes > 0);
        // The truncated store accepts new writes cleanly.
        store.put(3, &ok_outcome("after."));
        store.flush().unwrap();
        assert_eq!(program_of(&store.get(3).unwrap()), "after.");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan_at_the_bad_record() {
        let dir = temp_dir("corrupt");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("good."));
            store.put(2, &ok_outcome("flipped."));
            store.flush().unwrap();
        }
        // Flip one byte in the second record's body (the very last byte
        // of the file is inside it).
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(program_of(&store.get(1).unwrap()), "good.");
        assert!(store.get(2).is_none(), "corrupt record reads as cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_discards_the_segment() {
        let dir = temp_dir("version");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("stale-format."));
            store.flush().unwrap();
        }
        // Rewrite the header with a bumped store version.
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[4..8].copy_from_slice(&(STORE_VERSION + 1).to_be_bytes());
        std::fs::write(&seg, &bytes).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty(), "foreign-version segment must read cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protocol_mismatch_discards_the_segment() {
        let dir = temp_dir("protocol");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("stale-wire-format."));
            store.flush().unwrap();
        }
        // Rewrite the header as if a later wire protocol had written it.
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[8..12].copy_from_slice(&(PROTOCOL_VERSION as u32 + 1).to_be_bytes());
        std::fs::write(&seg, &bytes).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty(), "foreign-protocol segment must read cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_shorter_than_its_header_is_discarded() {
        let dir = temp_dir("short-header");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(1, &ok_outcome("lost."));
            store.flush().unwrap();
        }
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..HEADER_LEN as usize - 1]).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty(), "a torn header must read cold");
        // The reopened store writes a fresh header and works.
        store.put(2, &ok_outcome("after."));
        store.flush().unwrap();
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(program_of(&store.get(2).unwrap()), "after.");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Set in the child process that runs
    /// [`partial_flush_then_recovery`] under a file-size limit: the limit
    /// is process-wide, so it must not reach the other tests' threads.
    const PARTIAL_FLUSH_DIR: &str = "REORDD_STORE_PARTIAL_FLUSH_DIR";

    #[test]
    fn a_failed_flush_keeps_every_later_record_addressable() {
        if let Some(dir) = std::env::var_os(PARTIAL_FLUSH_DIR) {
            partial_flush_then_recovery(Path::new(&dir));
            return;
        }
        let name = concat!(
            module_path!(),
            "::a_failed_flush_keeps_every_later_record_addressable"
        );
        let name = name.split_once("::").map_or(name, |(_, path)| path);
        let dir = temp_dir("partial-flush");
        let output = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--nocapture", "--test-threads=1"])
            .env(PARTIAL_FLUSH_DIR, &dir)
            .output()
            .expect("the test binary re-runs itself");
        let _ = std::fs::remove_dir_all(&dir);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success() && stdout.contains("1 passed"),
            "child run failed ({}):\n{stdout}\n{stderr}",
            output.status
        );
    }

    /// 90 puts of ~3 KB fill the write-behind buffer past the flush
    /// threshold while the file may grow to only 200 KiB, so the flush
    /// fails part-way; then the limit is lifted and 90 more puts follow.
    /// Every record must read back, in process and after a reopen that
    /// finds nothing torn.
    fn partial_flush_then_recovery(dir: &Path) {
        #[repr(C)]
        struct Rlimit {
            cur: std::os::raw::c_ulong,
            max: std::os::raw::c_ulong,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        extern "C" fn on_xfsz(_signum: i32) {}
        const RLIMIT_FSIZE: i32 = 1;
        const SIGXFSZ: i32 = 25;

        let mut original = Rlimit { cur: 0, max: 0 };
        // SAFETY: `original` is a live, writable `struct rlimit`.
        assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut original) }, 0);
        let limited = Rlimit {
            cur: 200 * 1024,
            max: original.max,
        };
        // SAFETY: the handler touches no state; with it installed a write
        // past the limit fails with EFBIG instead of killing the process.
        // `limited` is a live `struct rlimit`.
        unsafe {
            signal(SIGXFSZ, on_xfsz);
            assert_eq!(setrlimit(RLIMIT_FSIZE, &limited), 0);
        }

        let text = |i: u128| format!("r{i}:{}", "x".repeat(3000));
        let store = DiskStore::open(dir).unwrap();
        for i in 0..90 {
            store.put(i, &ok_outcome(&text(i)));
        }
        assert!(store.flush().is_err(), "the size limit must fail the flush");
        // SAFETY: `original` is the live `struct rlimit` read above.
        assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &original) }, 0);
        for i in 90..180 {
            store.put(i, &ok_outcome(&text(i)));
        }
        store.flush().unwrap();

        let assert_all_readable = |store: &DiskStore, when: &str| {
            let lost: Vec<u128> = (0..180)
                .filter(|&i| store.get(i).map(|o| program_of(&o) == text(i)) != Some(true))
                .collect();
            assert!(
                lost.is_empty(),
                "{when}: {} of 180 records unreadable: {lost:?}",
                lost.len()
            );
        };
        assert_all_readable(&store, "in process");
        drop(store);
        let store = DiskStore::open(dir).unwrap();
        assert_eq!(store.stats().recovered_dropped_bytes, 0);
        assert_eq!(store.len(), 180);
        assert_all_readable(&store, "after reopen");
    }

    #[test]
    fn compaction_drops_dead_weight_and_keeps_the_live_set() {
        let dir = temp_dir("compact");
        let store = DiskStore::open(&dir).unwrap();
        // A program large enough that rewrites accumulate dead bytes
        // past the compaction floor.
        let big = "x".repeat(64 * 1024);
        for round in 0..8 {
            store.put(1, &ok_outcome(&format!("{big}{round}")));
        }
        store.put(2, &ok_outcome("keeper."));
        store.flush().unwrap();
        let stats = store.stats();
        assert!(stats.compactions >= 1, "rewrites must trigger compaction");
        // The policy invariant after any append: dead weight stays under
        // the floor or under the live set — never both over.
        assert!(
            stats.dead_bytes < COMPACT_MIN_DEAD || stats.dead_bytes <= stats.live_bytes,
            "dead {} vs live {} violates the compaction policy",
            stats.dead_bytes,
            stats.live_bytes
        );
        // And the bytes actually left the disk: without compaction the 8
        // rewrites (~64 KiB each) would sum to ~512 KiB on disk.
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert!(
            on_disk < 6 * 64 * 1024,
            "compaction must shrink the segment files (found {on_disk} bytes)"
        );
        assert_eq!(program_of(&store.get(2).unwrap()), "keeper.");
        assert!(program_of(&store.get(1).unwrap()).starts_with(&big));
        // Survives reopen.
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(program_of(&store.get(2).unwrap()), "keeper.");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
