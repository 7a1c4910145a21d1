//! The sharded tile store and its on-disk format.
//!
//! # Keying
//!
//! Tallies are addressed by two nested keys:
//!
//! - [`GroupKey`] `(exp, base_seed)` — the experiment id and the base seed
//!   of the run. One group maps to one on-disk file, and all cache traffic
//!   happens inside an explicitly entered group (see [`crate::cache`]), so
//!   distinct experiments can never alias each other's tiles.
//! - [`TileKey`] `(stream, stream_seed, tile_index)` — the scenario name,
//!   the derived seed of the individual `estimate()` call (experiments
//!   derive many streams from the base seed: `seed ^ k`,
//!   `seed + (i << 32)`, …), and the tile's index in the fixed tiling.
//!
//! A [`TileTally`] records the trial count alongside the four event counts;
//! consumers must check the count matches their tile geometry before using
//! a hit (this crate is deliberately ignorant of the tile size).
//!
//! # Disk format
//!
//! One file per group, written atomically (temp + rename), little-endian:
//!
//! ```text
//! file   := magic8 "FTILES01" | u32 version | u16 exp_len | exp bytes
//!           | u64 base_seed | record*
//! record := u32 0x454C4954 ("TILE") | u32 body_len | body | u64 fnv1a64(body)
//! body   := u16 stream_len | stream bytes | u64 stream_seed
//!           | u32 tile_index | u32 trials | u64 counts[4]
//! ```
//!
//! The loader is corruption-tolerant: a record whose magic, length bounds,
//! or checksum fail is skipped and the scan resynchronizes by advancing one
//! byte at a time until the next record magic — a torn or bit-flipped
//! region costs exactly the records it overlaps, never the file. A file
//! whose header fails to parse is skipped whole. Both outcomes are counted
//! in [`LoadSummary`] / [`StatsSnapshot`], never surfaced as errors: a
//! cache that fails to load is just cold.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event-count vector width (the four fairness events E00/E01/E10/E11).
pub const TALLY_WIDTH: usize = 4;

/// The four event counts of one tile, in `Event::ALL` order.
pub type Counts = [u64; TALLY_WIDTH];

/// On-disk format version (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 1;

const FILE_MAGIC: &[u8; 8] = b"FTILES01";
const RECORD_MAGIC: u32 = 0x454C_4954; // "TILE" read little-endian
/// Upper bound on embedded name lengths; a corrupt length field beyond
/// this is rejected instead of driving a huge allocation.
const MAX_NAME: usize = 4096;
const SHARDS: usize = 8;

/// Identifies one experiment run: the experiment id and its base seed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Experiment id (`e1` … `e17`).
    pub exp: String,
    /// The run's base seed (streams are derived from it).
    pub base_seed: u64,
}

/// Identifies one tile inside a group.
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
    /// Group files successfully opened.
    pub files: u64,
    /// Files whose header failed to parse (skipped whole).
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
    /// Group files written by flushes.
    pub flushed_files: u64,
    /// Groups currently resident.
    pub groups: u64,
    /// Tiles currently resident.
    pub entries: u64,
}

#[derive(Default)]
struct GroupState {
    tiles: BTreeMap<TileKey, TileTally>,
    dirty: bool,
}

#[derive(Default)]
struct Shard {
    groups: BTreeMap<GroupKey, GroupState>,
}

/// The tile store: a sharded in-memory map, optionally backed by one file
/// per group under a directory. All methods take `&self`; the store is
/// shared process-wide behind an `Arc` (see [`crate::cache`]).
pub struct Store {
    shards: Vec<Mutex<Shard>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    loaded_records: AtomicU64,
    skipped_records: AtomicU64,
    flushed_files: AtomicU64,
}

impl Store {
    fn new(dir: Option<PathBuf>) -> Store {
        Store {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            dir,
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

    /// A store persisted under `dir` (one `.tiles` file per group). The
    /// directory is created lazily on first flush; call [`Store::load`] to
    /// warm from whatever is already there.
    pub fn persistent(dir: impl Into<PathBuf>) -> Store {
        Store::new(Some(dir.into()))
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn shard_for(&self, group: &GroupKey) -> &Mutex<Shard> {
        let h = fnv1a64(group.exp.as_bytes()) ^ group.base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks up a tile, bumping the hit/miss counters.
    pub fn get(&self, group: &GroupKey, tile: &TileKey) -> Option<TileTally> {
        let shard = lock(self.shard_for(group));
        let found = shard
            .groups
            .get(group)
            .and_then(|g| g.tiles.get(tile))
            .copied();
        match found {
            Some(t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly computed tile and marks its group dirty.
    pub fn put(&self, group: GroupKey, tile: TileKey, tally: TileTally) {
        let mut shard = lock(self.shard_for(&group));
        let state = shard.groups.entry(group).or_default();
        state.tiles.insert(tile, tally);
        state.dirty = true;
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Tiles currently resident.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                lock(s)
                    .groups
                    .values()
                    .map(|g| g.tiles.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Groups currently resident.
    pub fn groups(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(s).groups.len() as u64)
            .sum()
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
            groups: self.groups(),
            entries: self.entries(),
        }
    }

    /// Loads every `.tiles` file under the backing directory, skipping
    /// corrupt records (and whole files with unreadable headers). Loaded
    /// groups start clean; tiles already in memory win over disk.
    /// A missing directory is simply a cold cache.
    pub fn load(&self) -> LoadSummary {
        let mut summary = LoadSummary::default();
        let Some(dir) = self.dir.as_ref() else {
            return summary;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return summary;
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tiles"))
            .collect();
        paths.sort();
        for path in paths {
            let Ok(bytes) = std::fs::read(&path) else {
                summary.skipped_files += 1;
                continue;
            };
            match decode_group(&bytes) {
                Some((group, tiles, skipped)) => {
                    summary.files += 1;
                    summary.skipped_records += skipped;
                    let mut shard = lock(self.shard_for(&group));
                    let state = shard.groups.entry(group).or_default();
                    for (key, tally) in tiles {
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            state.tiles.entry(key)
                        {
                            slot.insert(tally);
                            summary.loaded_records += 1;
                        }
                    }
                }
                None => summary.skipped_files += 1,
            }
        }
        self.loaded_records
            .fetch_add(summary.loaded_records, Ordering::Relaxed);
        self.skipped_records
            .fetch_add(summary.skipped_records, Ordering::Relaxed);
        summary
    }

    /// Writes every dirty group to its file (atomic temp + rename),
    /// clearing dirty flags. Returns the number of files written; in-memory
    /// stores always return `Ok(0)`.
    pub fn flush(&self) -> io::Result<usize> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(0);
        };
        let mut written = 0usize;
        for shard in &self.shards {
            // Encode under the lock (cheap), write outside it.
            let pending: Vec<(PathBuf, Vec<u8>)> = {
                let mut guard = lock(shard);
                guard
                    .groups
                    .iter_mut()
                    .filter(|(_, state)| state.dirty)
                    .map(|(group, state)| {
                        state.dirty = false;
                        (
                            dir.join(group_file_name(group)),
                            encode_group(group, &state.tiles),
                        )
                    })
                    .collect()
            };
            for (path, bytes) in pending {
                crate::fsio::atomic_write(&path, &bytes)?;
                written += 1;
            }
        }
        self.flushed_files
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a 64-bit — the record checksum (and shard hash).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// File name for a group: `<exp>-<seed hex>.tiles`, with non-alphanumeric
/// experiment characters mapped to `_`. Identity comes from the file
/// *header*, not the name.
pub fn group_file_name(group: &GroupKey) -> String {
    let safe: String = group
        .exp
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:016x}.tiles", group.base_seed)
}

fn encode_group(group: &GroupKey, tiles: &BTreeMap<TileKey, TileTally>) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + tiles.len() * 80);
    out.extend_from_slice(FILE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let exp = group.exp.as_bytes();
    let exp_len = exp.len().min(MAX_NAME) as u16;
    out.extend_from_slice(&exp_len.to_le_bytes());
    out.extend_from_slice(&exp[..exp_len as usize]);
    out.extend_from_slice(&group.base_seed.to_le_bytes());
    for (key, tally) in tiles {
        let body = encode_body(key, tally);
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    }
    out
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

/// A decoded group file: the group, the tiles that survived, and how many
/// corrupt records were skipped.
type DecodedGroup = (GroupKey, Vec<(TileKey, TileTally)>, u64);

/// Decodes one group file. `None` means the header was unreadable (skip
/// the whole file); otherwise returns the surviving records.
fn decode_group(bytes: &[u8]) -> Option<DecodedGroup> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(FILE_MAGIC.len())? != FILE_MAGIC {
        return None;
    }
    if cur.u32()? != FORMAT_VERSION {
        return None;
    }
    let exp_len = cur.u16()? as usize;
    if exp_len > MAX_NAME {
        return None;
    }
    let exp = core::str::from_utf8(cur.take(exp_len)?).ok()?.to_string();
    let base_seed = cur.u64()?;
    let group = GroupKey { exp, base_seed };

    let mut tiles = Vec::new();
    let mut skipped = 0u64;
    let mut pos = cur.pos;
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
    Some((group, tiles, skipped))
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

    fn group(exp: &str, seed: u64) -> GroupKey {
        GroupKey {
            exp: exp.into(),
            base_seed: seed,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fair-tiles-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn get_put_and_counters() {
        let store = Store::in_memory();
        let g = group("e1", 7);
        let k = key("CoinToss/abort", 7, 0);
        assert_eq!(store.get(&g, &k), None);
        store.put(g.clone(), k.clone(), tally(64, [10, 20, 30, 4]));
        assert_eq!(store.get(&g, &k), Some(tally(64, [10, 20, 30, 4])));
        // A different group cannot see it.
        assert_eq!(store.get(&group("e2", 7), &k), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 1));
        assert_eq!((stats.groups, stats.entries), (1, 1));
        assert_eq!(store.flush().expect("in-memory flush"), 0);
    }

    #[test]
    fn flush_and_load_round_trip() {
        let dir = scratch("roundtrip");
        let g = group("e3", 0xfa1e);
        let k1 = key("GK/n3", 0xfa1e ^ 2, 0);
        let k2 = key("GK/n3", 0xfa1e ^ 2, 1);
        {
            let store = Store::persistent(&dir);
            store.put(g.clone(), k1.clone(), tally(64, [64, 0, 0, 0]));
            store.put(g.clone(), k2.clone(), tally(64, [0, 0, 63, 1]));
            assert_eq!(store.flush().expect("flush"), 1);
            // Clean after flush: nothing more to write.
            assert_eq!(store.flush().expect("reflush"), 0);
        }
        let warm = Store::persistent(&dir);
        let summary = warm.load();
        assert_eq!(summary.files, 1);
        assert_eq!(summary.loaded_records, 2);
        assert_eq!(summary.skipped_records, 0);
        assert_eq!(warm.get(&g, &k1), Some(tally(64, [64, 0, 0, 0])));
        assert_eq!(warm.get(&g, &k2), Some(tally(64, [0, 0, 63, 1])));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_writes_canonical_bytes() {
        // Same contents inserted in different orders → identical files.
        let dir_a = scratch("canon-a");
        let dir_b = scratch("canon-b");
        let g = group("e1", 1);
        let a = Store::persistent(&dir_a);
        let b = Store::persistent(&dir_b);
        for (store, order) in [(&a, [0u32, 1, 2]), (&b, [2u32, 0, 1])] {
            for i in order {
                store.put(g.clone(), key("s", 9, i), tally(64, [64, 0, 0, 0]));
            }
            store.flush().expect("flush");
        }
        let name = group_file_name(&g);
        let bytes_a = std::fs::read(dir_a.join(&name)).expect("a");
        let bytes_b = std::fs::read(dir_b.join(&name)).expect("b");
        assert_eq!(bytes_a, bytes_b);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        let dir = scratch("corrupt");
        let g = group("e5", 42);
        let keys: Vec<TileKey> = (0..5).map(|i| key("OCT/n5", 42, i)).collect();
        {
            let store = Store::persistent(&dir);
            for (i, k) in keys.iter().enumerate() {
                store.put(
                    g.clone(),
                    k.clone(),
                    tally(64, [i as u64, 64 - i as u64, 0, 0]),
                );
            }
            store.flush().expect("flush");
        }
        let path = dir.join(group_file_name(&g));
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte in the middle of the file body (past the header),
        // corrupting one record's checksum.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");

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
            if let Some(t) = warm.get(&g, k) {
                assert_eq!(t, tally(64, [i as u64, 64 - i as u64, 0, 0]));
                intact += 1;
            }
        }
        assert_eq!(intact as u64, summary.loaded_records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_keeps_full_prefix_records() {
        let dir = scratch("truncated");
        let g = group("e2", 9);
        {
            let store = Store::persistent(&dir);
            for i in 0..4u32 {
                store.put(g.clone(), key("t", 9, i), tally(64, [64, 0, 0, 0]));
            }
            store.flush().expect("flush");
        }
        let path = dir.join(group_file_name(&g));
        let bytes = std::fs::read(&path).expect("read");
        // Chop the last 10 bytes (a torn write mid-record).
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        let warm = Store::persistent(&dir);
        let summary = warm.load();
        assert_eq!(summary.loaded_records, 3);
        assert_eq!(summary.skipped_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_header_skips_file() {
        let dir = scratch("garbage");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("junk.tiles"), b"not a tile file at all").expect("write");
        let store = Store::persistent(&dir);
        let summary = store.load();
        assert_eq!(summary.files, 0);
        assert_eq!(summary.skipped_files, 1);
        assert_eq!(store.entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_leaves_an_ignored_temp_file() {
        // A crash between `atomic_write`'s temp write and its rename leaves
        // `.<name>.tmp.<pid>.<seq>` beside the last good group file.
        let dir = scratch("crash");
        let g = group("e4", 3);
        let name = group_file_name(&g);
        {
            let store = Store::persistent(&dir);
            store.put(g.clone(), key("r", 3, 0), tally(64, [64, 0, 0, 0]));
            store.flush().expect("flush");
        }
        let tmp = dir.join(format!(".{name}.tmp.{}.7", std::process::id()));
        std::fs::write(&tmp, b"half-written garbage").expect("write temp");

        let warm = Store::persistent(&dir);
        let summary = warm.load();
        assert_eq!(
            summary,
            LoadSummary {
                files: 1,
                skipped_files: 0,
                loaded_records: 1,
                skipped_records: 0,
            }
        );
        assert_eq!(
            warm.get(&g, &key("r", 3, 0)),
            Some(tally(64, [64, 0, 0, 0]))
        );

        // The store keeps working over the stale temp file.
        warm.put(g.clone(), key("r", 3, 1), tally(64, [0, 64, 0, 0]));
        assert_eq!(warm.flush().expect("reflush"), 1);
        let reloaded = Store::persistent(&dir);
        let summary = reloaded.load();
        assert_eq!((summary.files, summary.skipped_files), (1, 0));
        assert_eq!(summary.loaded_records, 2);
        assert_eq!(
            reloaded.get(&g, &key("r", 3, 0)),
            Some(tally(64, [64, 0, 0, 0]))
        );
        assert_eq!(
            reloaded.get(&g, &key("r", 3, 1)),
            Some(tally(64, [0, 64, 0, 0]))
        );
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
