#![allow(clippy::print_stdout)] // cargo reads build-script directives from stdout
//! Fingerprints the workspace's Rust sources for `fair-bench`'s binaries.
//!
//! Hashes every `crates/*/src/**/*.rs` in sorted path order — each file's
//! path relative to `crates/`, then its bytes — with FNV-1a, and exports
//! the hash as the compile-time variable `FAIR_SOURCE_FINGERPRINT`
//! (16 hex digits). `reproduce --tiles` and `fair-serve` persist tiles in
//! a subdirectory named after it, so a build from another source tree
//! never reads tallies this one did not compute.

use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).expect("source directory is readable");
    for entry in entries {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&crates).expect("crates/ is readable");
    for entry in entries {
        let src = entry
            .expect("directory entry is readable")
            .path()
            .join("src");
        if src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for path in &files {
        let rel = path.strip_prefix(&crates).unwrap_or(path);
        h = fnv1a(h, rel.to_string_lossy().as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &std::fs::read(path).expect("source file is readable"));
        h = fnv1a(h, &[0]);
    }
    println!("cargo:rustc-env=FAIR_SOURCE_FINGERPRINT={h:016x}");
}
