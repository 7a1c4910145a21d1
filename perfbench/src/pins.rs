//! Pinned result digests: the SHA-256 of each canonical result document
//! (`fair_simlab::result_json`, as the runner and the server render it)
//! for every `(id, trials, seed)` the workloads check. Absolute pins, so a
//! change that shifts every estimate at once fails the gate.
//!
//! File format, one pin per line: `<id> <trials> <seed> <sha256-hex>`.
//! Regenerate with `perfbench --bless`, and say in CHANGES.md why the
//! digests moved.

use std::collections::BTreeMap;
use std::path::Path;

use fair_bench::runner::BASE_SEED;

use crate::batch;
use crate::report::digest;
use crate::serve;

pub struct Pins(BTreeMap<(String, usize, u64), String>);

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read pins {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for (n, line) in raw.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let parsed = match parts.as_slice() {
                [id, trials, seed, hex] => trials
                    .parse()
                    .ok()
                    .zip(seed.parse().ok())
                    .map(|(t, s)| ((id.to_string(), t, s), hex.to_string())),
                _ => None,
            };
            let (key, hex) = parsed.ok_or_else(|| format!("pins line {}: malformed", n + 1))?;
            map.insert(key, hex);
        }
        Ok(Pins(map))
    }

    /// Checks a document against its pin; a missing pin is a failure too.
    pub fn check(&self, id: &str, trials: usize, seed: u64, body: &[u8]) -> Result<(), String> {
        let key = (id.to_string(), trials, seed);
        match self.0.get(&key) {
            None => Err(format!("no pinned digest for {id}@{trials} seed {seed}")),
            Some(hex) if *hex == digest(body) => Ok(()),
            Some(hex) => Err(format!(
                "{id}@{trials} seed {seed}: digest {} != pinned {hex}",
                digest(body)
            )),
        }
    }
}

/// Every `(id, trials)` any workload checks at the base seed.
fn pinned_points() -> Vec<(String, usize)> {
    let mut points: Vec<(String, usize)> = (1..=batch::MAX_E1_TILES)
        .map(|jobs| ("e1".to_string(), batch::e1_trials(jobs)))
        .collect();
    points.push(("e16".to_string(), batch::E16_TRIALS));
    points.extend(batch::plan("registry_sweep", 1));
    points.push((serve::WARM_EXP.to_string(), serve::WARM_TRIALS));
    points
}

/// Recomputes and writes every pin; returns how many.
pub fn bless(repo: &Path, path: &Path) -> Result<usize, String> {
    fair_simlab::set_jobs(crate::nproc());
    batch::setup_registry(repo)?;
    let mut text = String::from(
        "# SHA-256 of canonical result documents (id trials seed digest).\n\
         # Regenerate with `perfbench --bless`; see pins.rs.\n",
    );
    let points = pinned_points();
    for (id, trials) in &points {
        let body = fair_bench::servecli::rendered_result(id, *trials, BASE_SEED)
            .ok_or_else(|| format!("unknown experiment {id}"))?;
        text.push_str(&format!(
            "{id} {trials} {BASE_SEED} {}\n",
            digest(body.as_bytes())
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(points.len())
}
