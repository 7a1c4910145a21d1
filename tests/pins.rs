//! Absolute pins: the SHA-256 of each canonical result document listed in
//! `perfbench/pins.txt` (one `<id> <trials> <seed> <sha256-hex>` per
//! line), recomputed through `fair_bench::servecli::rendered_result` — the
//! bytes both the batch runner and `fair-serve` produce. Relative
//! contracts (jobs, cache, tiles) cannot catch a change that shifts every
//! estimate at once; these can. The file is only read here; regenerate it
//! with `perfbench --bless` and say in CHANGES.md why the digests moved.

use fair_bench::servecli::rendered_result;
use fair_crypto::sha256::sha256;

/// Pins left to the benchmark: e1 at 128–256 trials takes 9–17 s each in
/// a debug build, and e1 at 64 trials runs the same code.
const SKIPPED: [(&str, usize); 3] = [("e1", 128), ("e1", 192), ("e1", 256)];

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
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
        let body = rendered_result(id, trials, seed)
            .unwrap_or_else(|| panic!("pinned id {id} is not registered"));
        let digest = hex(&sha256(body.as_bytes()));
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
