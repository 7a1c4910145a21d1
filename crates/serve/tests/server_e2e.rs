//! End-to-end tests over a real TCP socket: a live server with a mock
//! backend, exercising cold/warm byte identity, admission control under
//! overload, per-request deadlines, live `/stream` frames, idle timeouts,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use fair_serve::service::Backend;
use fair_serve::{client, Conn, Server, ServerConfig};
use fair_simlab::ProgressUpdate;

/// A deterministic backend: renders a canonical-looking document and
/// counts invocations; optionally sleeps to simulate slow estimations.
struct MockBackend {
    calls: AtomicUsize,
    delay: Duration,
}

impl MockBackend {
    fn instant() -> MockBackend {
        MockBackend {
            calls: AtomicUsize::new(0),
            delay: Duration::ZERO,
        }
    }

    fn slow(delay: Duration) -> MockBackend {
        MockBackend {
            calls: AtomicUsize::new(0),
            delay,
        }
    }
}

impl Backend for MockBackend {
    fn experiments(&self) -> Vec<(String, String)> {
        vec![("e1".to_string(), "mock".to_string())]
    }

    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        (exp == "e1")
            .then(|| format!("{{\"experiment\":\"{exp}\",\"seed\":{seed},\"trials\":{trials}}}\n"))
    }
}

/// A backend whose every estimate holds until the test releases it (or
/// 10 s pass); a progressive estimate emits one frame before holding.
struct Gated {
    started: AtomicUsize,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Gated {
    fn new() -> (Arc<Gated>, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel();
        let backend = Gated {
            started: AtomicUsize::new(0),
            release: Mutex::new(gate),
        };
        (Arc::new(backend), release)
    }

    fn hold(&self) -> bool {
        self.started.fetch_add(1, Ordering::SeqCst);
        let release = self.release.lock().expect("release lock");
        release.recv_timeout(Duration::from_secs(10)).is_ok()
    }
}

impl Backend for Gated {
    fn experiments(&self) -> Vec<(String, String)> {
        vec![("e1".to_string(), "mock".to_string())]
    }

    fn estimate(&self, _exp: &str, _trials: usize, seed: u64) -> Option<String> {
        self.hold().then(|| format!("{{\"seed\":{seed}}}\n"))
    }

    fn estimate_progressive(
        &self,
        _exp: &str,
        trials: usize,
        _seed: u64,
        _epsilon: f64,
        emit: &mut dyn FnMut(ProgressUpdate),
    ) -> Option<String> {
        emit(ProgressUpdate {
            scenario: "mock/gated".into(),
            requested: trials,
            trials: 64,
            mean: 0.5,
            ci: 1.0,
            done: false,
        });
        self.hold().then(|| "{\"released\":true}\n".to_string())
    }
}

/// Polls `cond` until it holds, failing the test after 10 s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Boots a server on an ephemeral port; returns its address, the serving
/// thread's join handle, and the programmatic shutdown latch.
fn boot<B: Backend>(
    backend: Arc<B>,
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
    Arc<std::sync::atomic::AtomicBool>,
) {
    let server = Server::bind(config, backend).expect("bind ephemeral port");
    let addr = server.local_addr();
    let latch = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, latch)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = client::post(addr, "/shutdown").expect("shutdown reachable");
    assert_eq!(reply.status, 200);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn serves_health_experiments_and_rejections() {
    let (addr, handle, _latch) = boot(Arc::new(MockBackend::instant()), ServerConfig::default());
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"status\":\"ok\"}\n");

    let listing = client::get(addr, "/experiments").expect("experiments");
    assert_eq!(listing.status, 200);
    assert!(listing.text().contains("\"e1\""));

    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(
        client::get(addr, "/estimate?exp=e1&trials=bogus")
            .expect("400")
            .status,
        400
    );
    assert_eq!(
        client::get(addr, "/estimate?exp=missing")
            .expect("404")
            .status,
        404
    );
    shutdown(addr, handle);
}

#[test]
fn cold_and_warm_responses_are_byte_identical() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let target = "/estimate?exp=e1&trials=100&seed=7";

    let cold = client::get(addr, target).expect("cold");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let warm = client::get(addr, target).expect("warm");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "hit path bytes == cold path bytes");

    // Parameter order and seed spelling don't fork the cache.
    let reordered = client::get(addr, "/estimate?seed=0x7&trials=100&exp=e1").expect("reordered");
    assert_eq!(reordered.header("x-cache"), Some("hit"));
    assert_eq!(reordered.body, cold.body);
    assert_eq!(backend.calls.load(Ordering::SeqCst), 1, "one computation");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("\"cache_hits\": 2"));
    shutdown(addr, handle);
}

#[test]
fn keep_alive_connections_reuse_parser_state_across_requests() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let target = "/estimate?exp=e1&trials=100&seed=3";

    // Several sequential requests on ONE socket: the first computes, the
    // rest are cache hits served by the same connection's parser state.
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut bodies = Vec::new();
    for i in 0..4 {
        conn.send(target).expect("send");
        let reply = conn.recv().expect("reply on reused connection");
        assert_eq!(reply.status, 200);
        let expected = if i == 0 { "miss" } else { "hit" };
        assert_eq!(reply.header("x-cache"), Some(expected), "request {i}");
        bodies.push(reply.body);
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "stable bytes");
    assert_eq!(backend.calls.load(Ordering::SeqCst), 1, "one computation");

    // A different route on the same still-open connection parses fine —
    // per-request state fully resets between requests.
    conn.send("/healthz").expect("send healthz");
    let health = conn.recv().expect("healthz on reused connection");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\"}\n");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    assert!(
        text.contains("\"keepalive_reuses\": 4"),
        "4 reused requests counted, got: {text}"
    );
    shutdown(addr, handle);
}

#[test]
fn pipelined_requests_answer_in_order_with_identical_bytes() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let targets: Vec<String> = (0..5)
        .map(|seed| format!("/estimate?exp=e1&trials=50&seed={seed}"))
        .collect();

    // Warm every point with fresh one-shot connections first.
    let fresh: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            let reply = client::get(addr, t).expect("warmup");
            assert_eq!(reply.status, 200);
            reply.body
        })
        .collect();

    // Now pipeline the whole batch down one connection in a single write;
    // replies must come back in request order, each byte-identical to its
    // fresh-connection counterpart. A cold point in the middle of the
    // batch (handed to the worker pool) must not reorder anything.
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut batch: Vec<&str> = targets.iter().map(String::as_str).collect();
    let cold = "/estimate?exp=e1&trials=50&seed=99";
    batch.insert(2, cold);
    conn.send_many(&batch).expect("pipelined send");
    for (i, target) in batch.iter().enumerate() {
        let reply = conn.recv().expect("pipelined reply");
        assert_eq!(reply.status, 200, "reply {i}");
        if *target == cold {
            assert_eq!(reply.header("x-cache"), Some("miss"), "cold mid-batch");
        } else {
            assert_eq!(reply.header("x-cache"), Some("hit"), "warm reply {i}");
            let fresh_body = &fresh[targets.iter().position(|t| t == target).expect("known")];
            assert_eq!(&reply.body, fresh_body, "bytes for {target}");
        }
    }

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    let doc = fair_simlab::json::parse(text.trim_end()).expect("metrics parse");
    let server = fair_simlab::json::get(&doc, "server").expect("server block");
    let pipelined = match fair_simlab::json::get(server, "pipelined_requests") {
        Some(fair_simlab::json::Json::Num(n)) => *n,
        other => panic!("pipelined_requests missing: {other:?}"),
    };
    assert!(pipelined >= 1.0, "pipelining was observed, got {pipelined}");
    shutdown(addr, handle);
}

#[test]
fn pipelined_batch_past_the_pipeline_cap_is_answered_in_full() {
    // More requests in one write than the per-connection pipeline cap
    // (64): the heads past the cap are already buffered server-side, so
    // no further readiness event announces them. Every one must still be
    // answered, in order, well before the 5 s read timeout.
    let (addr, handle, _latch) = boot(Arc::new(MockBackend::instant()), ServerConfig::default());
    let points = 5;
    for seed in 0..points {
        let warm = client::get(addr, &format!("/estimate?exp=e1&trials=50&seed={seed}"));
        assert_eq!(warm.expect("warmup").status, 200);
    }
    let targets: Vec<String> = (0..100)
        .map(|i| format!("/estimate?exp=e1&trials=50&seed={}", i % points))
        .collect();
    let mut conn = Conn::connect(addr, Duration::from_secs(2)).expect("connect");
    let batch: Vec<&str> = targets.iter().map(String::as_str).collect();
    conn.send_many(&batch).expect("one pipelined write");
    for i in 0..targets.len() {
        let reply = conn
            .recv()
            .unwrap_or_else(|e| panic!("reply {i} of {}: {e}", targets.len()));
        assert_eq!(reply.status, 200, "reply {i}");
        assert_eq!(reply.header("x-cache"), Some("hit"), "reply {i} warm");
        let seed = format!("\"seed\":{},", i % points);
        assert!(reply.text().contains(&seed), "reply {i} in order");
    }
    shutdown(addr, handle);
}

#[test]
fn overload_is_answered_with_bounded_429s() {
    // One worker, one queue slot, slow estimations: blasting N distinct
    // points must produce some 429s, and every connection gets answered.
    let backend = Arc::new(MockBackend::slow(Duration::from_millis(150)));
    let config = ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(backend, config);

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let target = format!("/estimate?exp=e1&trials=10&seed={i}");
                    client::get(addr, &target).expect("every connection is answered")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let ok = replies.iter().filter(|r| r.status == 200).count();
    let rejected = replies.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + rejected, 8, "only 200s and 429s under pure overload");
    assert!(ok >= 1, "some requests are served");
    assert!(rejected >= 1, "overload sheds load with 429");
    for r in replies.iter().filter(|r| r.status == 429) {
        assert_eq!(r.header("retry-after"), Some("1"));
    }
    shutdown(addr, handle);
}

#[test]
fn stream_refused_at_a_full_queue_gets_its_429_in_pipeline_order() {
    // The overload setup above — one worker, one queue slot, a slow mock
    // — with the slowness held by a gate so the interleaving is forced.
    let (backend, release) = Gated::new();
    let config = ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(Arc::clone(&backend), config);

    // Occupy the only worker.
    let busy = std::thread::spawn(move || {
        client::get(addr, "/estimate?exp=e1&trials=10&seed=1").expect("answered")
    });
    wait_until("worker busy", || {
        backend.started.load(Ordering::SeqCst) == 1
    });
    // The cold estimate takes the queue slot, so the stream behind it is
    // refused; its 429 must still wait for the earlier reply.
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    conn.send_many(&[
        "/estimate?exp=e1&trials=10&seed=2",
        "/stream?exp=e1&trials=10",
    ])
    .expect("pipelined send");
    wait_until("stream refused", || {
        let metrics = client::get(addr, "/metrics").expect("metrics");
        metrics.text().contains("\"rejected_queue_full\": 1")
    });
    for _ in 0..2 {
        release.send(()).expect("backend is waiting");
    }
    let first = conn.recv().expect("cold reply");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let refused = conn.recv().expect("stream refusal after the earlier reply");
    assert_eq!(refused.status, 429);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(refused.header("connection"), Some("close"));
    assert!(
        conn.recv().is_err(),
        "the connection closes after the refusal"
    );
    assert_eq!(busy.join().expect("no panic").status, 200);
    shutdown(addr, handle);
}

#[test]
fn stream_frames_reach_the_client_while_the_estimate_runs() {
    let (backend, release) = Gated::new();
    let (addr, handle, _latch) = boot(backend, ServerConfig::default());

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    sock.write_all(b"GET /stream?exp=e1&trials=640 HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("send");
    // The backend is still blocked after its first frame, so that frame
    // must arrive on its own — not buffered until the job ends.
    let mut seen = Vec::new();
    let mut chunk = [0u8; 4096];
    while !String::from_utf8_lossy(&seen).contains("\"trials\":64") {
        let n = sock
            .read(&mut chunk)
            .expect("first frame arrives while the estimate runs");
        assert!(n > 0, "closed before the first frame");
        seen.extend_from_slice(&chunk[..n]);
    }
    assert!(!String::from_utf8_lossy(&seen).contains("released"));

    release.send(()).expect("backend is waiting");
    sock.read_to_end(&mut seen).expect("rest of the stream");
    let text = String::from_utf8_lossy(&seen);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("{\"released\":true}"), "{text}");
    assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text:?}");
    shutdown(addr, handle);
}

#[test]
fn expired_deadlines_get_503_instead_of_late_service() {
    // Zero deadline: by the time a worker picks the job up the deadline
    // has always passed, so every request is answered 503 immediately.
    let config = ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (addr, handle, latch) = boot(Arc::new(MockBackend::instant()), config);
    let reply = client::get(addr, "/estimate?exp=e1").expect("answered");
    assert_eq!(reply.status, 503);
    assert!(reply.text().contains("deadline"));

    // With a zero deadline even POST /shutdown is 503'd before the route
    // runs, so stop the server through the programmatic latch instead.
    let shutdown_reply = client::post(addr, "/shutdown").expect("reachable");
    assert_eq!(shutdown_reply.status, 503);
    latch.store(true, Ordering::SeqCst);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn idle_keep_alive_connection_is_closed_and_counted() {
    let config = ServerConfig {
        keepalive_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(Arc::new(MockBackend::instant()), config);
    let mut conn = Conn::connect(addr, Duration::from_secs(2)).expect("connect");
    conn.send("/healthz").expect("send");
    assert_eq!(conn.recv().expect("healthz").status, 200);
    // Idle past the keep-alive timeout: the server closes the socket (EOF),
    // well before the client's own 2 s read timeout would fire.
    let err = conn
        .recv()
        .expect_err("the server closes an idle connection");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    let metrics = client::get(addr, "/metrics").expect("metrics").text();
    assert!(metrics.contains("\"conn_timeouts\": 1,"), "{metrics}");
    shutdown(addr, handle);
}

#[test]
fn connection_waiting_on_a_job_outlives_the_keep_alive_timeout() {
    let (backend, release) = Gated::new();
    let config = ServerConfig {
        keepalive_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(Arc::clone(&backend), config);
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    conn.send("/estimate?exp=e1&trials=10&seed=1")
        .expect("send");
    wait_until("job started", || {
        backend.started.load(Ordering::SeqCst) == 1
    });
    // Hold the job for several timeouts: a connection with a job in
    // flight is never reaped.
    std::thread::sleep(Duration::from_millis(700));
    release.send(()).expect("backend is waiting");
    let reply = conn.recv().expect("reply after the hold");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, b"{\"seed\":1}\n");
    let metrics = client::get(addr, "/metrics").expect("metrics").text();
    assert!(metrics.contains("\"conn_timeouts\": 0,"), "{metrics}");
    shutdown(addr, handle);
}

/// Four slow estimates in flight when `POST /shutdown` lands: each is
/// answered before the server exits, and the final snapshot is flushed.
/// With two loops the kernel spreads the five connections over both, so
/// a loop drains jobs while the latch was set by a request on the other.
fn shutdown_drains_and_flushes_metrics(loops: usize) {
    let dir = std::env::temp_dir().join(format!("fair_serve_e2e_{}_{loops}", std::process::id()));
    let metrics_path = dir.join("final_metrics.json");
    let backend = Arc::new(MockBackend::slow(Duration::from_millis(200)));
    let config = ServerConfig {
        loops,
        metrics_path: Some(metrics_path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(Arc::clone(&backend), config);

    // Put slow requests in flight, then request shutdown while the
    // workers are still estimating.
    let in_flight: Vec<_> = (1..=4)
        .map(|seed| {
            std::thread::spawn(move || {
                client::get(addr, &format!("/estimate?exp=e1&trials=10&seed={seed}"))
                    .expect("answered")
            })
        })
        .collect();
    wait_until("every estimate started", || {
        backend.calls.load(Ordering::SeqCst) == 4
    });
    shutdown(addr, handle);

    // Drain guarantee: every in-flight request completed with a real answer.
    for request in in_flight {
        assert_eq!(request.join().expect("no panic").status, 200);
    }

    // The final snapshot was flushed and is valid JSON.
    let snapshot = std::fs::read_to_string(&metrics_path).expect("metrics flushed");
    let doc = fair_simlab::json::parse(snapshot.trim_end()).expect("valid json");
    assert!(fair_simlab::json::get(&doc, "server").is_some());
    assert!(
        snapshot.contains(&format!("\"loops\": {loops},")),
        "{snapshot}"
    );
    assert!(snapshot.contains("\"cache_misses\": 4,"), "{snapshot}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_flushes_metrics() {
    for loops in [1, 2] {
        shutdown_drains_and_flushes_metrics(loops);
    }
}
