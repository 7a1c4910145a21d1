//! Absolute pins: the SHA-256 of each canonical result document listed in
//! `perfbench/pins.txt` (one `<id> <trials> <seed> <sha256-hex>` per
//! line), recomputed through `fair_bench::servecli::rendered_result` — the
//! bytes both the batch runner and `fair-serve` produce. Relative
//! contracts (jobs, cache, tiles) cannot catch a change that shifts every
//! estimate at once; these can. The file is only read here; regenerate it
//! with `perfbench --bless` and say in CHANGES.md why the digests moved.
//! [`EXTRA`] pins ids the frozen file does not cover yet.

use fair_bench::servecli::rendered_result;
use fair_crypto::sha256::sha256;

/// Pins left to the benchmark: e1 at 128–256 trials takes 9–17 s each in
/// a debug build, and e1 at 64 trials runs the same code.
const SKIPPED: [(&str, usize); 3] = [("e1", 128), ("e1", 192), ("e1", 256)];

/// Pins `perfbench/pins.txt` lacks, in its `(id, trials, seed, digest)`
/// form. e8 was left out of the file while it took minutes at default
/// trials; these rows move into `pins.txt` at the next benchmark change.
const EXTRA: [(&str, usize, u64, &str); 1] = [(
    "e8",
    16,
    64030,
    "7acb08dbe1c7c1929bc626da54c16293a88f76de198bb8918f31f962d6e5782f",
)];

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The digest of `id`'s result document at `trials` and `seed`.
fn digest_of(id: &str, trials: usize, seed: u64) -> String {
    let body = rendered_result(id, trials, seed)
        .unwrap_or_else(|| panic!("pinned id {id} is not registered"));
    hex(&sha256(body.as_bytes()))
}

#[test]
fn result_documents_match_their_pinned_digests() {
    let pins =
        std::fs::read_to_string("perfbench/pins.txt").expect("perfbench/pins.txt is readable");
    let mut checked = 0;
    let mut moved = Vec::new();
    for line in pins.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [id, trials, seed, pinned] = fields[..] else {
            panic!("malformed pin line: {line:?}");
        };
        let trials: usize = trials.parse().expect("trials is an integer");
        let seed: u64 = seed.parse().expect("seed is an integer");
        if SKIPPED.contains(&(id, trials)) {
            continue;
        }
        let digest = digest_of(id, trials, seed);
        if digest != pinned {
            moved.push(format!(
                "{id}@{trials} seed {seed}: {digest} != pinned {pinned}"
            ));
        }
        checked += 1;
    }
    assert!(
        moved.is_empty(),
        "result documents moved:\n{}",
        moved.join("\n")
    );
    assert!(checked > 0, "perfbench/pins.txt pins nothing");
}

#[test]
fn ids_outside_the_frozen_file_match_their_pinned_digests() {
    for (id, trials, seed, pinned) in EXTRA {
        assert_eq!(
            digest_of(id, trials, seed),
            pinned,
            "{id}@{trials} seed {seed} moved"
        );
    }
}
