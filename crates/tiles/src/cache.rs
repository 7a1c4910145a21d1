//! Process-global store installation.
//!
//! The estimator (`fair_core::utility::estimate`) is many layers below the
//! code that decides whether tiles are cached, so the store travels out of
//! band: a binary (or a server at bind) [`install`]s one, and the
//! estimator asks [`lookup`]/[`record`], which consult it. A tile's key is
//! what determines its tally, so an installed store serves every estimate
//! in the process. With no store installed both are inert — the cache is
//! strictly opt-in.
//!
//! Lookups and inserts happen on the *calling* thread: the estimator
//! resolves cached tiles before fanning the missing ones out to scheduler
//! workers.

use std::sync::{Arc, RwLock};

use crate::store::{StatsSnapshot, Store, TileKey, TileTally};

static STORE: RwLock<Option<Arc<Store>>> = RwLock::new(None);

/// Installs `store` as the process-global tile store, replacing (and
/// returning) any previous one.
pub fn install(store: Arc<Store>) -> Option<Arc<Store>> {
    let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
    slot.replace(store)
}

/// Removes and returns the installed store.
pub fn uninstall() -> Option<Arc<Store>> {
    let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
    slot.take()
}

/// The currently installed store, if any.
pub fn installed() -> Option<Arc<Store>> {
    STORE.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Whether tile caching is live: a store is installed.
pub fn active() -> bool {
    installed().is_some()
}

fn key(stream: &str, stream_seed: u64, index: u32) -> TileKey {
    TileKey {
        stream: stream.to_string(),
        stream_seed,
        index,
    }
}

/// Looks up a tile in the installed store. `None` when no store is
/// installed or the tile is absent; hit/miss counters tick only on real
/// lookups.
pub fn lookup(stream: &str, stream_seed: u64, index: u32) -> Option<TileTally> {
    installed()?.get(&key(stream, stream_seed, index))
}

/// Records a freshly computed tile in the installed store (no-op without
/// one).
pub fn record(stream: &str, stream_seed: u64, index: u32, tally: TileTally) {
    if let Some(store) = installed() {
        store.put(key(stream, stream_seed, index), tally);
    }
}

/// Appends the installed store's new tiles to its log. Returns the number
/// of appends (0 when no store, in-memory store, or nothing new); I/O
/// errors are swallowed — a cache that fails to persist is still a
/// working cache.
pub fn flush() -> usize {
    installed().and_then(|s| s.flush().ok()).unwrap_or(0)
}

/// Stats snapshot of the installed store, if any.
pub fn snapshot() -> Option<StatsSnapshot> {
    installed().map(|s| s.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cache tests share the process-global store slot; serialize them.
    static SLOT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn inert_without_a_store() {
        let _guard = SLOT.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(!active());
        assert_eq!(lookup("s", 1, 0), None);
        record("s", 1, 0, TileTally::default()); // no-op
        assert_eq!(flush(), 0);
        assert_eq!(snapshot(), None);
    }

    #[test]
    fn an_installed_store_is_live() {
        let _guard = SLOT.lock().unwrap_or_else(|e| e.into_inner());
        install(Arc::new(Store::in_memory()));
        assert!(active());
        assert_eq!(lookup("s", 5, 0), None);
        let tile = TileTally {
            trials: 1,
            counts: [1, 0, 0, 0],
        };
        record("s", 5, 0, tile);
        assert_eq!(lookup("s", 5, 0), Some(tile));
        let stats = snapshot().expect("installed");
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        uninstall();
        assert!(!active());
    }
}
