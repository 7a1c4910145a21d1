//! Cross-loop invariants of the sharded serving core, end-to-end over the
//! real experiment registry: the loop count is a pure throughput knob.
//! Whatever `--loops` is set to, the same `(exp, trials, seed)` point
//! serves the same bytes — equal to the batch runner's deterministic
//! result document — cold, warm, and pipelined; and a pipelined batch
//! that ends in a `/stream` still answers strictly in order.

use std::sync::Arc;
use std::time::Duration;

use fair_bench::servecli::{rendered_result, ExperimentBackend};
use fair_serve::{client, Server, ServerConfig};
use fair_simlab::json::{self, Json};

fn boot(
    loops: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServerConfig {
        loops,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::new(ExperimentBackend)).expect("ephemeral bind");
    assert_eq!(server.loops(), loops.max(1));
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
fn served_bytes_identical_across_loop_counts_and_to_batch() {
    // Each point's reference bytes come from the batch runner; every
    // sharded configuration must serve exactly them, cold and warm.
    let points: Vec<(usize, u64)> = vec![(20, 1), (25, 2), (30, 3)];
    let batch: Vec<String> = points
        .iter()
        .map(|(trials, seed)| rendered_result("e1", *trials, *seed).expect("known experiment"))
        .collect();

    let mut served: Vec<Vec<Vec<u8>>> = Vec::new();
    for loops in [1usize, 2, 4] {
        let (addr, handle) = boot(loops);
        let mut bodies = Vec::new();
        for ((trials, seed), reference) in points.iter().zip(&batch) {
            let target = format!("/estimate?exp=e1&trials={trials}&seed={seed}");
            // Fresh connections: under reuseport sharding each may land
            // on a different loop — the bytes must not care.
            let cold = client::get(addr, &target).expect("cold");
            assert_eq!(cold.status, 200, "loops={loops} {target}");
            assert_eq!(
                String::from_utf8_lossy(&cold.body),
                *reference,
                "loops={loops}: cold bytes == batch bytes for {target}"
            );
            let warm = client::get(addr, &target).expect("warm");
            assert_eq!(warm.status, 200);
            assert_eq!(
                warm.body, cold.body,
                "loops={loops}: warm bytes == cold bytes for {target}"
            );
            bodies.push(cold.body);
        }
        // The /metrics snapshot aggregates every loop's counters and
        // reports the loop count itself.
        let metrics = client::get(addr, "/metrics").expect("metrics");
        let doc = json::parse(&metrics.text()).expect("metrics JSON");
        assert_eq!(
            json::get(&doc, "loops"),
            Some(&Json::Num(loops as f64)),
            "metrics reports the loop count"
        );
        stop(addr, handle);
        served.push(bodies);
    }

    for bodies in &served[1..] {
        assert_eq!(
            bodies, &served[0],
            "served bytes are identical across loop counts"
        );
    }
}

#[test]
fn pipelined_batch_ending_in_stream_detach_stays_in_order_when_sharded() {
    let (addr, handle) = boot(2);
    let points: Vec<(usize, u64)> = vec![(20, 4), (25, 5), (20, 6)];
    let mut targets: Vec<String> = points
        .iter()
        .map(|(trials, seed)| format!("/estimate?exp=e1&trials={trials}&seed={seed}"))
        .collect();
    targets.push("/stream?exp=e1&trials=20&seed=4".to_string());

    let mut conn = fair_serve::Conn::connect(addr, Duration::from_secs(30)).expect("connect");
    let refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    conn.send_many(&refs).expect("pipelined batch");

    // The estimate replies come back strictly in order — each body is the
    // batch document for *its* point, so any reordering would mismatch.
    for (i, (trials, seed)) in points.iter().enumerate() {
        let reply = conn.recv().expect("in-order reply");
        assert_eq!(reply.status, 200, "reply {i}");
        let reference = rendered_result("e1", *trials, *seed).expect("known");
        assert_eq!(
            String::from_utf8_lossy(&reply.body),
            reference,
            "pipelined reply {i} is the batch document for its own point"
        );
    }

    // The stream is last: its chunked frames and final result document
    // reach the socket only after the queued replies ahead of it.
    let stream = conn.recv().expect("streamed tail reply");
    assert_eq!(stream.status, 200);
    assert_eq!(
        stream
            .header("transfer-encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    let text = stream.text();
    let first_frame = text.lines().next().expect("at least one frame");
    let frame = json::parse(first_frame).expect("frame is JSON");
    assert!(
        json::get(&frame, "trials").is_some(),
        "progress frame carries a trial count: {first_frame}"
    );
    assert!(
        text.contains("\"adaptive\"") && text.contains("\"result\""),
        "stream ends with the final result document"
    );
    stop(addr, handle);
}
