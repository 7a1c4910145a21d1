//! The sharded tile store and its on-disk log.
//!
//! # Keying
//!
//! A tile is addressed by [`TileKey`] `(stream, stream_seed, tile_index)`:
//! the scenario name, the derived seed of the `estimate()` call that ran
//! it (experiments derive many streams from one base seed: `seed ^ k`,
//! `seed + (i << 32)`, …), and the tile's index in the fixed tiling.
//! These three fields determine the tally, because a scenario name is an
//! identity: equal names build equal trials from equal seeds. So one store
//! serves every estimate of a process, and two experiments that run the
//! same scenario at the same seed share its tiles.
//!
//! A [`TileTally`] records the trial count alongside the four event counts;
//! consumers must check the count matches their tile geometry before using
//! a hit (this crate is deliberately ignorant of the tile size).
//!
//! # Disk format
//!
//! A persistent store keeps one append-only log, [`LOG_FILE`], in its
//! directory, little-endian:
//!
//! ```text
//! log    := magic8 "FAIRTILE" | u32 version | record*
//! record := u32 0x454C4954 ("TILE") | u32 body_len | body | u64 fnv1a64(body)
//! body   := u16 stream_len | stream bytes | u64 stream_seed
//!           | u32 tile_index | u32 trials | u64 counts[4]
//! ```
//!
//! A flush appends the tiles inserted since the previous flush, sorted by
//! key, in one `write` on a handle opened in append mode, so concurrent
//! flushes, from threads or processes, land whole and lose no record. The
//! first flush of a store opens the log: it writes the header to a missing
//! or empty file and starts over a file with another header.
//!
//! The loader is corruption-tolerant: a record whose magic, length bounds,
//! or checksum fail is skipped and the scan resynchronizes by advancing one
//! byte at a time until the next record magic — a torn tail or a bit-flipped
//! region costs exactly the records it overlaps, never the log. A log whose
//! header does not match loads nothing. Both outcomes are counted in
//! [`LoadSummary`] / [`StatsSnapshot`], never surfaced as errors: a cache
//! that fails to load is just cold.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Event-count vector width (the four fairness events E00/E01/E10/E11).
pub const TALLY_WIDTH: usize = 4;

/// The four event counts of one tile, in `Event::ALL` order.
pub type Counts = [u64; TALLY_WIDTH];

/// On-disk format version (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 2;

/// The log's file name inside a persistent store's directory.
pub const LOG_FILE: &str = "log.tiles";

const FILE_MAGIC: &[u8; 8] = b"FAIRTILE";
const RECORD_MAGIC: u32 = 0x454C_4954; // "TILE" read little-endian
/// Upper bound on embedded name lengths; a corrupt length field beyond
/// this is rejected instead of driving a huge allocation.
const MAX_NAME: usize = 4096;
const SHARDS: usize = 8;

/// Identifies one tile: what determines its tally.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TileKey {
    /// Scenario name of the `estimate()` call that produced the tile.
    pub stream: String,
    /// The derived seed of that call.
    pub stream_seed: u64,
    /// Tile index in the fixed tiling of the trial range.
    pub index: u32,
}

/// One tile's integer tally: trial count plus the four event counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileTally {
    /// Trials in the tile (callers validate this equals a full tile).
    pub trials: u32,
    /// Event counts in `Event::ALL` order.
    pub counts: Counts,
}

/// What a [`Store::load`] pass found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Logs read with a matching header (0 or 1).
    pub files: u64,
    /// Logs whose header did not match (they load nothing).
    pub skipped_files: u64,
    /// Records loaded into the map.
    pub loaded_records: u64,
    /// Records skipped for bad magic/length/checksum.
    pub skipped_records: u64,
}

/// A point-in-time view of the store's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Tallies inserted (computed fresh and recorded).
    pub inserts: u64,
    /// Records loaded from disk over the store's lifetime.
    pub loaded_records: u64,
    /// Corrupt records skipped during loads.
    pub skipped_records: u64,
    /// Appends made to the log by flushes.
    pub flushed_files: u64,
    /// Tiles currently resident.
    pub entries: u64,
}

/// The disk half of a persistent store.
struct Log {
    dir: PathBuf,
    /// Tiles inserted since the previous flush.
    pending: Mutex<Vec<(TileKey, TileTally)>>,
    /// The append handle, opened once by the first flush with tiles to
    /// write; later flushes block on nothing but their own `write`.
    file: OnceLock<io::Result<File>>,
}

/// The tile store: a sharded in-memory map, optionally backed by an
/// append-only log in a directory. All methods take `&self`; the store is
/// shared process-wide behind an `Arc` (see [`crate::cache`]).
pub struct Store {
    shards: Vec<Mutex<BTreeMap<TileKey, TileTally>>>,
    log: Option<Log>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    loaded_records: AtomicU64,
    skipped_records: AtomicU64,
    flushed_files: AtomicU64,
}

impl Store {
    fn new(log: Option<Log>) -> Store {
        Store {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            log,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            loaded_records: AtomicU64::new(0),
            skipped_records: AtomicU64::new(0),
            flushed_files: AtomicU64::new(0),
        }
    }

    /// A purely in-memory store ([`Store::flush`] is a no-op).
    pub fn in_memory() -> Store {
        Store::new(None)
    }

    /// A store persisted under `dir` (one [`LOG_FILE`]). The directory is
    /// created lazily on first flush; call [`Store::load`] to warm from
    /// whatever is already there.
    pub fn persistent(dir: impl Into<PathBuf>) -> Store {
        Store::new(Some(Log {
            dir: dir.into(),
            pending: Mutex::new(Vec::new()),
            file: OnceLock::new(),
        }))
    }

    fn shard_for(&self, tile: &TileKey) -> &Mutex<BTreeMap<TileKey, TileTally>> {
        let h = fnv1a64(tile.stream.as_bytes())
            ^ tile.stream_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(tile.index);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks up a tile, bumping the hit/miss counters.
    pub fn get(&self, tile: &TileKey) -> Option<TileTally> {
        let found = lock(self.shard_for(tile)).get(tile).copied();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a freshly computed tile; a persistent store queues a tile
    /// it did not hold yet for the next flush.
    pub fn put(&self, tile: TileKey, tally: TileTally) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let new = lock(self.shard_for(&tile))
            .insert(tile.clone(), tally)
            .is_none();
        if let (true, Some(log)) = (new, &self.log) {
            lock(&log.pending).push((tile, tally));
        }
    }

    /// Tiles currently resident.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).len() as u64).sum()
    }

    /// Every resident tile, sorted by key.
    pub fn tiles(&self) -> Vec<(TileKey, TileTally)> {
        let mut all: Vec<(TileKey, TileTally)> = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).iter().map(|(k, t)| (k.clone(), *t)));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Counter + occupancy snapshot (what `/metrics` exports).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            loaded_records: self.loaded_records.load(Ordering::Relaxed),
            skipped_records: self.skipped_records.load(Ordering::Relaxed),
            flushed_files: self.flushed_files.load(Ordering::Relaxed),
            entries: self.entries(),
        }
    }

    /// Loads the log under the backing directory, skipping corrupt
    /// records (and the whole log when its header does not match). Tiles
    /// already in memory win over disk. A missing log is a cold cache.
    pub fn load(&self) -> LoadSummary {
        let mut summary = LoadSummary::default();
        let Some(log) = &self.log else {
            return summary;
        };
        let Ok(bytes) = std::fs::read(log.dir.join(LOG_FILE)) else {
            return summary;
        };
        let Some((tiles, skipped)) = decode_log(&bytes) else {
            summary.skipped_files = 1;
            return summary;
        };
        summary.files = 1;
        summary.skipped_records = skipped;
        for (key, tally) in tiles {
            let mut shard = lock(self.shard_for(&key));
            if let std::collections::btree_map::Entry::Vacant(slot) = shard.entry(key) {
                slot.insert(tally);
                summary.loaded_records += 1;
            }
        }
        self.loaded_records
            .fetch_add(summary.loaded_records, Ordering::Relaxed);
        self.skipped_records
            .fetch_add(summary.skipped_records, Ordering::Relaxed);
        summary
    }

    /// Appends the tiles inserted since the previous flush to the log, in
    /// one write made outside every lock. Returns the number of appends
    /// (1, or 0 when there was nothing new); in-memory stores always
    /// return `Ok(0)`. On an error the batch stays in memory but not on
    /// disk: a later run recomputes it.
    pub fn flush(&self) -> io::Result<usize> {
        let Some(log) = &self.log else {
            return Ok(0);
        };
        let mut batch = std::mem::take(&mut *lock(&log.pending));
        if batch.is_empty() {
            return Ok(0);
        }
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        let mut bytes = Vec::with_capacity(batch.len() * 80);
        for (key, tally) in &batch {
            encode_record(&mut bytes, key, tally);
        }
        let mut file = match log.file.get_or_init(|| open_log(&log.dir)) {
            Ok(file) => file,
            Err(e) => return Err(io::Error::new(e.kind(), e.to_string())),
        };
        file.write_all(&bytes)?;
        self.flushed_files.fetch_add(1, Ordering::Relaxed);
        Ok(1)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a 64-bit — the record checksum (and shard hash).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The log header: magic and format version.
fn header() -> Vec<u8> {
    let mut out = FILE_MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Opens the log in `dir` for appending. A missing or empty file gets the
/// header; a file with another header is started over.
fn open_log(dir: &Path) -> io::Result<File> {
    std::fs::create_dir_all(dir)?;
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(dir.join(LOG_FILE))?;
    let header = header();
    let mut head = Vec::with_capacity(header.len());
    (&file).take(header.len() as u64).read_to_end(&mut head)?;
    if head != header {
        if !head.is_empty() {
            file.set_len(0)?;
        }
        file.write_all(&header)?;
    }
    Ok(file)
}

fn encode_record(out: &mut Vec<u8>, key: &TileKey, tally: &TileTally) {
    let body = encode_body(key, tally);
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
}

fn encode_body(key: &TileKey, tally: &TileTally) -> Vec<u8> {
    let stream = key.stream.as_bytes();
    let stream_len = stream.len().min(MAX_NAME);
    let mut body = Vec::with_capacity(2 + stream_len + 8 + 4 + 4 + 32);
    body.extend_from_slice(&(stream_len as u16).to_le_bytes());
    body.extend_from_slice(&stream[..stream_len]);
    body.extend_from_slice(&key.stream_seed.to_le_bytes());
    body.extend_from_slice(&key.index.to_le_bytes());
    body.extend_from_slice(&tally.trials.to_le_bytes());
    for c in tally.counts {
        body.extend_from_slice(&c.to_le_bytes());
    }
    body
}

/// A bounds-checked little-endian cursor; every read returns `Option` so
/// the decoder is total on arbitrary bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|s| {
            let arr: [u8; 8] = s.try_into().ok()?;
            Some(u64::from_le_bytes(arr))
        })
    }
}

fn decode_body(body: &[u8]) -> Option<(TileKey, TileTally)> {
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    let stream_len = cur.u16()? as usize;
    if stream_len > MAX_NAME {
        return None;
    }
    let stream = core::str::from_utf8(cur.take(stream_len)?)
        .ok()?
        .to_string();
    let stream_seed = cur.u64()?;
    let index = cur.u32()?;
    let trials = cur.u32()?;
    let mut counts = [0u64; TALLY_WIDTH];
    for c in counts.iter_mut() {
        *c = cur.u64()?;
    }
    if cur.pos != body.len() {
        return None;
    }
    // Internal consistency: counts must sum to the trial count.
    let total: u64 = counts.iter().copied().sum();
    if total != u64::from(trials) {
        return None;
    }
    Some((
        TileKey {
            stream,
            stream_seed,
            index,
        },
        TileTally { trials, counts },
    ))
}

/// The records of a decoded log that survived, and how many corrupt
/// spans were skipped.
type DecodedLog = (Vec<(TileKey, TileTally)>, u64);

/// Decodes a log. `None` means the header did not match (load nothing);
/// otherwise returns the surviving records.
fn decode_log(bytes: &[u8]) -> Option<DecodedLog> {
    let bytes = bytes.strip_prefix(header().as_slice())?;
    let mut tiles = Vec::new();
    let mut skipped = 0u64;
    let mut pos = 0;
    // `in_sync` collapses an arbitrarily long corrupt span into one skip:
    // the count reflects resync events, not bytes scanned.
    let mut in_sync = true;
    let magic = RECORD_MAGIC.to_le_bytes();
    while pos < bytes.len() {
        if bytes.len() - pos >= 4 && bytes[pos..pos + 4] == magic {
            if let Some((record, next)) = decode_record(bytes, pos) {
                tiles.push(record);
                pos = next;
                in_sync = true;
                continue;
            }
        }
        if in_sync {
            skipped += 1;
            in_sync = false;
        }
        pos += 1;
    }
    Some((tiles, skipped))
}

/// Tries to decode the record starting at `pos` (which holds the record
/// magic); returns the record and the offset just past it.
fn decode_record(bytes: &[u8], pos: usize) -> Option<((TileKey, TileTally), usize)> {
    let mut cur = Cursor {
        bytes,
        pos: pos + 4,
    };
    let body_len = cur.u32()? as usize;
    if body_len > 2 + MAX_NAME + 8 + 4 + 4 + 8 * TALLY_WIDTH {
        return None;
    }
    let body = cur.take(body_len)?;
    let checksum = cur.u64()?;
    if checksum != fnv1a64(body) {
        return None;
    }
    let record = decode_body(body)?;
    Some((record, cur.pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(stream: &str, seed: u64, index: u32) -> TileKey {
        TileKey {
            stream: stream.into(),
            stream_seed: seed,
            index,
        }
    }

    fn tally(trials: u32, counts: Counts) -> TileTally {
        TileTally { trials, counts }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fair-tiles-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn log_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(LOG_FILE)).expect("log exists")
    }

    #[test]
    fn get_put_and_counters() {
        let store = Store::in_memory();
        let k = key("CoinToss/abort", 7, 0);
        assert_eq!(store.get(&k), None);
        store.put(k.clone(), tally(64, [10, 20, 30, 4]));
        assert_eq!(store.get(&k), Some(tally(64, [10, 20, 30, 4])));
        // Another stream seed is another tile.
        assert_eq!(store.get(&key("CoinToss/abort", 8, 0)), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(store.tiles(), vec![(k, tally(64, [10, 20, 30, 4]))]);
        assert_eq!(store.flush().expect("in-memory flush"), 0);
    }

    #[test]
    fn flush_and_load_round_trip() {
        let dir = scratch("roundtrip");
        let k1 = key("GK(p=2,m=32,domain)/abort@3", 0xfa1e ^ 2, 0);
        let k2 = key("GK(p=2,m=32,domain)/abort@3", 0xfa1e ^ 2, 1);
        {
            let store = Store::persistent(&dir);
            store.put(k1.clone(), tally(64, [64, 0, 0, 0]));
            store.put(k2.clone(), tally(64, [0, 0, 63, 1]));
            assert_eq!(store.flush().expect("flush"), 1);
        }
        let warm = Store::persistent(&dir);
        assert_eq!(
            warm.load(),
            LoadSummary {
                files: 1,
                skipped_files: 0,
                loaded_records: 2,
                skipped_records: 0,
            }
        );
        assert_eq!(warm.get(&k1), Some(tally(64, [64, 0, 0, 0])));
        assert_eq!(warm.get(&k2), Some(tally(64, [0, 0, 63, 1])));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flush_with_nothing_new_writes_nothing() {
        let dir = scratch("idle");
        let store = Store::persistent(&dir);
        assert_eq!(store.flush().expect("empty flush"), 0);
        assert!(!dir.exists(), "nothing to write opens no log");
        store.put(key("s", 1, 0), tally(64, [64, 0, 0, 0]));
        assert_eq!(store.flush().expect("flush"), 1);
        let written = log_bytes(&dir);
        assert_eq!(store.flush().expect("second flush"), 0);
        // Re-inserting a resident tile queues nothing either.
        store.put(key("s", 1, 0), tally(64, [64, 0, 0, 0]));
        assert_eq!(store.flush().expect("third flush"), 0);
        assert_eq!(log_bytes(&dir), written);
        assert_eq!(store.stats().flushed_files, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_writes_canonical_bytes() {
        // Same batch inserted in different orders → identical logs.
        let dir_a = scratch("canon-a");
        let dir_b = scratch("canon-b");
        let a = Store::persistent(&dir_a);
        let b = Store::persistent(&dir_b);
        for (store, order) in [(&a, [0u32, 1, 2]), (&b, [2u32, 0, 1])] {
            for i in order {
                store.put(key("s", 9, i), tally(64, [64, 0, 0, 0]));
            }
            store.flush().expect("flush");
        }
        assert_eq!(log_bytes(&dir_a), log_bytes(&dir_b));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        let dir = scratch("corrupt");
        let keys: Vec<TileKey> = (0..5).map(|i| key("OCT/n5", 42, i)).collect();
        {
            let store = Store::persistent(&dir);
            for (i, k) in keys.iter().enumerate() {
                store.put(k.clone(), tally(64, [i as u64, 64 - i as u64, 0, 0]));
            }
            store.flush().expect("flush");
        }
        let mut bytes = log_bytes(&dir);
        // Flip a byte in the middle of the log (past the header),
        // corrupting one record's checksum.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(dir.join(LOG_FILE), &bytes).expect("rewrite");

        let warm = Store::persistent(&dir);
        let summary = warm.load();
        assert_eq!(summary.files, 1);
        assert!(summary.skipped_records >= 1, "{summary:?}");
        assert_eq!(
            summary.loaded_records + summary.skipped_records,
            5,
            "every record accounted for: {summary:?}"
        );
        // The surviving tiles are intact.
        let mut intact = 0;
        for (i, k) in keys.iter().enumerate() {
            if let Some(t) = warm.get(k) {
                assert_eq!(t, tally(64, [i as u64, 64 - i as u64, 0, 0]));
                intact += 1;
            }
        }
        assert_eq!(intact as u64, summary.loaded_records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_and_later_appends_load() {
        let dir = scratch("torn");
        {
            let store = Store::persistent(&dir);
            for i in 0..4u32 {
                store.put(key("t", 9, i), tally(64, [64, 0, 0, 0]));
            }
            store.flush().expect("flush");
        }
        // Chop the last 10 bytes: a write torn mid-record.
        let bytes = log_bytes(&dir);
        std::fs::write(dir.join(LOG_FILE), &bytes[..bytes.len() - 10]).expect("truncate");
        let store = Store::persistent(&dir);
        let summary = store.load();
        assert_eq!((summary.loaded_records, summary.skipped_records), (3, 1));

        // The next flush appends behind the torn record, and loads.
        store.put(key("t", 9, 4), tally(64, [0, 64, 0, 0]));
        store.put(key("t", 9, 5), tally(64, [0, 0, 64, 0]));
        assert_eq!(store.flush().expect("append"), 1);
        let reloaded = Store::persistent(&dir);
        let summary = reloaded.load();
        assert_eq!((summary.loaded_records, summary.skipped_records), (5, 1));
        assert_eq!(reloaded.get(&key("t", 9, 3)), None, "the torn tile");
        assert_eq!(
            reloaded.get(&key("t", 9, 5)),
            Some(tally(64, [0, 0, 64, 0]))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_log_loads_nothing_and_is_started_over() {
        let dir = scratch("version");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut old = FILE_MAGIC.to_vec();
        old.extend_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        encode_record(&mut old, &key("s", 1, 0), &tally(64, [64, 0, 0, 0]));
        std::fs::write(dir.join(LOG_FILE), &old).expect("write");

        let store = Store::persistent(&dir);
        assert_eq!(
            store.load(),
            LoadSummary {
                files: 0,
                skipped_files: 1,
                loaded_records: 0,
                skipped_records: 0,
            }
        );
        assert_eq!(store.entries(), 0);
        store.put(key("s", 2, 0), tally(64, [0, 0, 64, 0]));
        assert_eq!(store.flush().expect("flush"), 1);
        let mut fresh = header();
        encode_record(&mut fresh, &key("s", 2, 0), &tally(64, [0, 0, 64, 0]));
        assert_eq!(log_bytes(&dir), fresh, "the log was started over");

        // Garbage shorter than a header is another header too.
        std::fs::write(dir.join(LOG_FILE), b"junk").expect("write");
        assert_eq!(Store::persistent(&dir).load().skipped_files, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_flushes_lose_no_record() {
        let dir = scratch("concurrent");
        let store = Store::persistent(&dir);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..100u32 {
                        let events = u64::from(i) % 65;
                        store.put(key("c", t, i), tally(64, [events, 64 - events, 0, 0]));
                        store.flush().expect("flush");
                    }
                });
            }
        });
        assert_eq!(store.flush().expect("drained"), 0);
        let reloaded = Store::persistent(&dir);
        let summary = reloaded.load();
        assert_eq!((summary.loaded_records, summary.skipped_records), (200, 0));
        assert_eq!(reloaded.tiles(), store.tiles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn body_rejects_count_sum_mismatch() {
        let k = key("s", 1, 0);
        let mut t = tally(64, [10, 10, 10, 10]);
        let body = encode_body(&k, &t);
        assert_eq!(decode_body(&body), None, "40 != 64 must be rejected");
        t.counts = [16, 16, 16, 16];
        let body = encode_body(&k, &t);
        assert_eq!(decode_body(&body), Some((k, t)));
    }

    #[test]
    fn load_missing_dir_is_cold_not_error() {
        let store = Store::persistent(scratch("never-created"));
        assert_eq!(store.load(), LoadSummary::default());
    }
}
