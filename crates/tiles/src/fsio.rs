//! Atomic file writes (temp + rename).
//!
//! Every whole-file artifact the workspace produces —
//! `target/simlab/<exp>.json` records, `BENCH_*.json` aggregates — goes
//! through [`atomic_write`]: bytes land in a uniquely named temporary
//! file in the destination directory and are published with a single
//! `rename`, so a killed or crashing run can never leave a truncated file
//! at the destination path. Readers either see the old complete contents
//! or the new complete contents.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic discriminator so concurrent writers in one process never
/// collide on a temp name (the pid separates processes).
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename over the destination. Creates parent directories as needed.
/// On any error the temp file is removed (best effort) and the destination
/// is left untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir)?;
    let base = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("atomic");
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{base}.tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fair-tiles-fsio-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch("replace");
        let path = dir.join("nested/out.json");
        atomic_write(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        atomic_write(&path, b"second").expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        // No temp litter left behind.
        let names: Vec<_> = std::fs::read_dir(path.parent().expect("parent"))
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names.len(), 1, "leftover temp files: {names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_do_not_collide() {
        let dir = scratch("concurrent");
        let path = dir.join("shared.bin");
        std::thread::scope(|s| {
            for i in 0..8u8 {
                let path = path.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        atomic_write(&path, &[i; 64]).expect("write");
                    }
                });
            }
        });
        // Whatever won, the file is one writer's complete payload.
        let got = std::fs::read(&path).expect("read");
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|b| *b == got[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
