//! The experiment registry and its documentation stay in lockstep,
//! checked against the live registry rather than its source text:
//!
//! * every registered id has a row in EXPERIMENTS.md's summary tables —
//!   `| E<k> |` for the static experiments, `| s_… |` for the scenario
//!   families — and every such row names a registered id;
//! * no id is registered twice;
//! * every `scenarios/*.toml` file compiles (the registry silently skips
//!   a file that does not, so only this check notices it);
//! * a tile-store key is an identity across the registry: equal
//!   `(scenario name, stream seed, tile index)` keys carry equal tallies,
//!   so sharing one store changes no result byte.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use fair_bench::servecli::rendered_result;
use fair_tiles::{Store, TileKey, TileTally};

/// The registry id a summary-table row documents: `| E<k> |` is `e<k>`,
/// `| s_… |` is the scenario id itself; any other row documents none.
fn documented_id(line: &str) -> Option<String> {
    let cell = line.strip_prefix("| ")?.split(" |").next()?;
    if let Some(k) = cell.strip_prefix('E') {
        let numbered = !k.is_empty() && k.chars().all(|c| c.is_ascii_digit());
        return numbered.then(|| format!("e{k}"));
    }
    let scenario = cell.starts_with("s_")
        && cell
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    scenario.then(|| cell.to_string())
}

#[test]
fn summary_row_parsing() {
    assert_eq!(documented_id("| E13 | claim | ok |"), Some("e13".into()));
    assert_eq!(
        documented_id("| s_gk_curve | family |"),
        Some("s_gk_curve".into())
    );
    assert_eq!(documented_id("| Exp | Paper claim |"), None);
    assert_eq!(documented_id("| Scenario | Family |"), None);
    assert_eq!(documented_id("|---|---|"), None);
}

#[test]
fn registry_ids_and_experiments_md_rows_agree() {
    let md = std::fs::read_to_string("EXPERIMENTS.md").expect("EXPERIMENTS.md is readable");
    let documented: BTreeSet<String> = md.lines().filter_map(documented_id).collect();
    let registered: BTreeSet<String> = fair_bench::all_experiment_ids().into_iter().collect();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but without an EXPERIMENTS.md summary row: {undocumented:?}"
    );
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "EXPERIMENTS.md rows naming no registered experiment: {unregistered:?}"
    );
}

#[test]
fn registry_ids_are_unique() {
    let ids = fair_bench::all_experiment_ids();
    let mut seen = BTreeSet::new();
    let repeated: Vec<_> = ids.iter().filter(|id| !seen.insert(*id)).collect();
    assert!(repeated.is_empty(), "ids registered twice: {repeated:?}");
}

#[test]
fn every_scenario_file_compiles() {
    let load = fair_scenario::load_dir(Path::new("scenarios"));
    let errors: Vec<String> = load.errors.iter().map(ToString::to_string).collect();
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(
        !load.specs.is_empty(),
        "no scenario compiled from scenarios/"
    );
}

/// Trials per estimate in the identity check: one full tile, so every
/// estimate of every id reads and writes the installed store.
const ONE_TILE: usize = 64;

#[test]
fn tile_keys_are_identities_across_the_registry() {
    let ids = fair_bench::all_experiment_ids();
    let seed = fair_bench::runner::BASE_SEED;
    let run = |id: &str| rendered_result(id, ONE_TILE, seed).expect("registered id");

    fair_tiles::cache::uninstall();
    let unstored: Vec<String> = ids.iter().map(|id| run(id)).collect();

    // Each id into its own store: a key minted under two ids must carry
    // one tally.
    let mut first_seen: BTreeMap<TileKey, (String, TileTally)> = BTreeMap::new();
    let mut per_id = Vec::new();
    for id in &ids {
        let store = Arc::new(Store::in_memory());
        fair_tiles::cache::install(Arc::clone(&store));
        per_id.push(run(id));
        fair_tiles::cache::uninstall();
        for (key, tally) in store.tiles() {
            match first_seen.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert((id.clone(), tally));
                }
                Entry::Occupied(seen) => assert_eq!(
                    seen.get().1,
                    tally,
                    "{:?}: {} and {id} disagree",
                    seen.key(),
                    seen.get().0
                ),
            }
        }
    }

    // One store across the whole registry: later ids hit earlier tiles.
    let shared = Arc::new(Store::in_memory());
    fair_tiles::cache::install(Arc::clone(&shared));
    let shared_docs: Vec<String> = ids.iter().map(|id| run(id)).collect();
    fair_tiles::cache::uninstall();
    assert!(shared.stats().hits > 0, "no id reused another's tiles");

    for (k, id) in ids.iter().enumerate() {
        assert_eq!(per_id[k], unstored[k], "{id}: own store vs no store");
        assert_eq!(
            shared_docs[k], unstored[k],
            "{id}: shared store vs no store"
        );
    }
}
