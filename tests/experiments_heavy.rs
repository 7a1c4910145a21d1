//! The heavier experiments (many coalition sizes / long protocols), run at
//! reduced trial counts.

use fair_bench::{experiments, lookup, run_experiment, Entry, Experiment};

fn static_experiment(id: &str) -> &'static Experiment {
    match lookup(id) {
        Some(Entry::Static(e)) => e,
        _ => panic!("{id} is not a static experiment"),
    }
}

#[test]
fn e5_lemma_11_profile() {
    // Restrict to n ∈ {3, 4} at this scale (the binary covers n = 5 too).
    let r = static_experiment("e5").report(experiments::e5(150, 0xe5, &[3, 4]));
    assert!(r.pass(), "{}", r.render());
}

#[test]
fn e8_gmw_half_cliff() {
    let r = static_experiment("e8").report(experiments::e8(150, 0xe8, &[4, 5]));
    assert!(r.pass(), "{}", r.render());
}

#[test]
fn e11_gordon_katz_bounds() {
    let r = run_experiment("e11", 250, 0xe11).expect("known id");
    assert!(r.pass(), "{}", r.render());
}
