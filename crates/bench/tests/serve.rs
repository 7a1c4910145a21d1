//! The serving layer's central contract, end-to-end over the real
//! registry: for a fixed `(experiment, params, trials, seed)` the served
//! JSON is **byte-identical** to the batch run's deterministic result
//! document — on the cold path and on the cached path.

use std::sync::Arc;
use std::time::Duration;

use fair_bench::servecli::{rendered_result, run_load, ExperimentBackend, LoadOptions};
use fair_serve::{client, Server, ServerConfig};

fn boot() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server =
        Server::bind(ServerConfig::default(), Arc::new(ExperimentBackend)).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn stop(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    assert_eq!(
        client::post(addr, "/shutdown").expect("reachable").status,
        200
    );
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn served_bytes_equal_batch_record_bytes_cold_and_cached() {
    let (addr, handle) = boot();
    let (exp, trials, seed) = ("e1", 25, 7u64);

    // The batch side: the result document a `reproduce` run records.
    let record = fair_bench::runner::run_recorded(exp, trials, seed).expect("known experiment");
    let batch = record.result_json().render_pretty() + "\n";
    // Registry determinism: an independent run renders the same bytes.
    assert_eq!(rendered_result(exp, trials, seed).expect("known"), batch);

    let target = format!("/estimate?exp={exp}&trials={trials}&seed={seed}");
    let cold = client::get(addr, &target).expect("cold");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(
        String::from_utf8_lossy(&cold.body),
        batch,
        "cold served bytes == batch record bytes"
    );

    let warm = client::get(addr, &target).expect("warm");
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cached bytes == cold bytes");
    stop(addr, handle);
}

#[test]
fn scenario_derived_experiments_serve_byte_identical_to_batch() {
    // The scenario leg of the registry honors the same contract as the
    // static entries: listed on /experiments, served cold and cached,
    // byte-identical to the batch runner's result document.
    let (addr, handle) = boot();
    let (exp, trials, seed) = ("s_deposit_coin", 25, 7u64);

    let listing = client::get(addr, "/experiments").expect("listing");
    assert_eq!(listing.status, 200);
    assert!(
        String::from_utf8_lossy(&listing.body).contains(exp),
        "scenario id listed on /experiments"
    );

    let record = fair_bench::runner::run_recorded(exp, trials, seed).expect("compiled scenario");
    let batch = record.result_json().render_pretty() + "\n";
    assert_eq!(rendered_result(exp, trials, seed).expect("known"), batch);

    let target = format!("/estimate?exp={exp}&trials={trials}&seed={seed}");
    let cold = client::get(addr, &target).expect("cold");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(
        String::from_utf8_lossy(&cold.body),
        batch,
        "cold served scenario bytes == batch record bytes"
    );

    let warm = client::get(addr, &target).expect("warm");
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cached scenario bytes == cold bytes");
    stop(addr, handle);
}

#[test]
fn load_generator_measures_a_live_server() {
    let (addr, handle) = boot();
    let opts = LoadOptions {
        addr,
        clients: 2,
        points: 3,
        repeat: 2,
        exp: "e1".to_string(),
        trials: 10,
        ..LoadOptions::default()
    };
    let report = run_load(&opts);
    assert_eq!(report.mode, "oneshot");
    assert_eq!(report.errors, 0, "no request failed");
    assert_eq!(report.total_requests, 3 + 2 * 2 * 3);
    assert_eq!(report.cold_tile_hits, None, "no tile store installed");
    assert_eq!(
        report.cold_cache_hits, 0,
        "a fresh server's cold phase is cold"
    );
    assert_eq!(
        report.warm_hits, report.warm_requests,
        "warm phase all cached"
    );
    assert!(report.warm_rps > 0.0);
    assert!(
        report.cold_ns.p50 >= report.warm_ns.p50,
        "cache is not slower"
    );

    // The same point set over persistent pipelined connections: still
    // zero errors, still all cached (the cache was warmed above).
    let persistent = LoadOptions {
        connections: 2,
        pipeline: 3,
        ..opts
    };
    let report = run_load(&persistent);
    assert_eq!(report.mode, "persistent");
    assert_eq!(report.errors, 0, "no request failed on keep-alive path");
    assert_eq!(
        report.cold_cache_hits, 3,
        "a second cold phase on the same server is answered from the cache"
    );
    assert_eq!(
        report.warm_hits, report.warm_requests,
        "persistent warm phase all cached"
    );
    stop(addr, handle);
}

#[test]
fn pipelined_warm_bytes_equal_fresh_connection_bytes() {
    // The pipelining byte-identity contract over the REAL registry: N
    // warm requests pipelined down one keep-alive connection return
    // exactly the bytes N fresh-connection requests return — which are
    // themselves the batch runner's deterministic result documents.
    let (addr, handle) = boot();
    let points: Vec<(usize, u64)> = vec![(20, 1), (20, 2), (25, 3), (20, 1), (25, 3)];
    let targets: Vec<String> = points
        .iter()
        .map(|(trials, seed)| format!("/estimate?exp=e1&trials={trials}&seed={seed}"))
        .collect();

    let fresh: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            let reply = client::get(addr, t).expect("fresh connection");
            assert_eq!(reply.status, 200);
            reply.body
        })
        .collect();

    let mut conn =
        fair_serve::Conn::connect(addr, Duration::from_secs(30)).expect("persistent connect");
    let refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    conn.send_many(&refs).expect("pipelined batch");
    for (i, ((trials, seed), fresh_body)) in points.iter().zip(&fresh).enumerate() {
        let reply = conn.recv().expect("in-order reply");
        assert_eq!(reply.status, 200, "reply {i}");
        assert_eq!(reply.header("x-cache"), Some("hit"), "reply {i} cached");
        assert_eq!(&reply.body, fresh_body, "pipelined bytes, reply {i}");
        let batch = rendered_result("e1", *trials, *seed).expect("known");
        assert_eq!(
            String::from_utf8_lossy(&reply.body),
            batch,
            "pipelined bytes == batch record bytes, reply {i}"
        );
    }
    stop(addr, handle);
}

#[test]
fn overloaded_live_server_sheds_load_within_bounds() {
    // Tiny pool + nontrivial estimations: concurrent distinct points must
    // yield some 429s, every connection answered promptly.
    let config = ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::new(ExperimentBackend)).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..10)
            .map(|i| {
                scope.spawn(move || {
                    let target = format!("/estimate?exp=e2&trials=800&seed={i}");
                    let t0 = std::time::Instant::now();
                    let reply = client::get(addr, &target).expect("answered");
                    (reply, t0.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let ok = replies.iter().filter(|(r, _)| r.status == 200).count();
    let rejected = replies.iter().filter(|(r, _)| r.status == 429).count();
    assert_eq!(
        ok + rejected,
        replies.len(),
        "only 200 or 429 under overload"
    );
    assert!(rejected >= 1, "the bounded queue shed load");
    // Rejections are bounded: answered fast, not after the queue drains.
    for (reply, elapsed) in &replies {
        if reply.status == 429 {
            assert!(
                *elapsed < Duration::from_secs(5),
                "429 answered within bounds, took {elapsed:?}"
            );
        }
    }
    stop(addr, handle);
}
