//! Regression gate: fairlint on the real workspace reports zero
//! violations. Any future wall-clock read, derived Debug on key
//! material, crate root without `#![forbid(unsafe_code)]`, or reasonless
//! suppression breaks this test (and `ci.sh`, which runs the binary in
//! `--strict` mode). Registry/EXPERIMENTS.md lockstep is checked by the
//! workspace test `tests/registry.rs`, against the live registry.

use std::path::Path;

use fairlint::Workspace;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let ws = Workspace::load(&root).expect("workspace loads");
    // Sanity: this really is the repo (the walker saw the whole tree).
    assert!(ws.files.len() > 100, "only {} files found", ws.files.len());
    let diags = ws.analyze();
    assert!(
        diags.is_empty(),
        "fairlint found {} violation(s) in the workspace:\n{}",
        diags.len(),
        diags
            .iter()
            .map(fairlint::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_workspace_config_scopes_the_boundary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let ws = Workspace::load(&root).expect("workspace loads");
    // fairlint.toml is checked in and actually loaded: the boundary
    // covers the protocol stack, and the one sanctioned env entry
    // point is allowlisted.
    for krate in [
        "core",
        "protocols",
        "runtime",
        "crypto",
        "field",
        "circuits",
    ] {
        assert!(ws.config.boundary_crates.iter().any(|c| c == krate));
    }
    assert!(ws
        .config
        .env_allow_paths
        .iter()
        .any(|p| p == "crates/simlab/src/config.rs"));
    assert!(ws.config.extra_secret_types.iter().any(|t| t == "Prg"));
    // The serving layer is supervised: its request parser and handler
    // are S2 (panic-free) paths, the library itself is T1 (no direct
    // stdout/stderr), and every workspace member is either scoped or
    // deliberately allowlisted for R5.
    for path in [
        "crates/serve/src/http.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/service.rs",
    ] {
        assert!(
            ws.config.engine_paths.iter().any(|p| p == path),
            "{path} missing from rules.S2.paths"
        );
    }
    assert!(ws.config.trace_crates.iter().any(|c| c == "serve"));
    assert!(ws.config.boundary_crates.iter().any(|c| c == "sfe"));
    assert!(ws.members.iter().any(|m| m == "serve"));
    assert!(ws.config.r5_allow_crates.iter().any(|c| c == "rand"));
    // Concurrency rules are configured: the guard-helper idiom is
    // known, C3 walks two hops, and each proven-total allowlist entry
    // names a real qualified function.
    assert!(ws.config.c1_guard_helpers.iter().any(|h| h == "lock"));
    assert_eq!(ws.config.c3_depth, 2);
    assert!(ws
        .config
        .c3_allow_fns
        .iter()
        .any(|f| f == "serve::cache::ShardedCache::shard_for"));
    let g = fairlint::graph::build(&ws);
    for allowed in &ws.config.c3_allow_fns {
        assert!(
            g.by_qname(allowed).is_some(),
            "[rules.C3] allow_fns entry `{allowed}` matches no workspace function"
        );
    }
}

#[test]
fn the_workspace_graph_covers_every_member_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let ws = Workspace::load(&root).expect("workspace loads");
    let g = fairlint::graph::build(&ws);
    for member in &ws.members {
        assert!(
            g.symbols
                .iter()
                .any(|s| s.item.krate.as_deref() == Some(member)),
            "crate `{member}` contributes no symbols to the call graph"
        );
    }
    assert!(
        !g.edges.is_empty(),
        "the workspace graph resolved no call edges at all"
    );
}
