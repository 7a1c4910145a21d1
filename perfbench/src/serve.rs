//! The `serve_mixed` workload: a fresh `fair-serve` (one event loop, one
//! compute worker) on a fresh, empty tile directory, driven from this
//! process over two persistent connections.
//!
//! 1. Set-up: the server is started `SETUP_STARTS` times, each on a new
//!    directory; set-up is spawn → bound → `/healthz` 200. The last start
//!    serves the load.
//! 2. Prefill: the warm working set is computed cold, closed loop, over
//!    both connections.
//! 3. Ladder: warm `/estimate` hits over the working set at rising offered
//!    rates, open loop (sends follow the schedule whatever the replies do;
//!    latency counts from each request's scheduled send time). On the
//!    second connection, a fixed 50 ms schedule interleaves cold misses,
//!    trial-growth requests and `/stream` requests.
//! 4. Checks: every body is compared with the batch document computed in
//!    this process for the same `(exp, trials, seed)`; the base-seed warm
//!    key is also checked against its pinned digest.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use fair_bench::runner::BASE_SEED;
use fair_serve::client::{self, Conn, Dechunker};
use fair_simlab::json::{self, Json};

use crate::pins::Pins;
use crate::report::{self, median, Outcome};
use crate::Args;

/// Experiment of the warm working set and the prefill.
pub const WARM_EXP: &str = "e2";
/// Trials of the warm working set: two tiles per estimate.
pub const WARM_TRIALS: usize = 128;
/// Keys in the warm working set (the first one at the pinned base seed).
const WARM_KEYS: usize = 48;
/// Experiment of the cold, growth and stream requests.
const MIXED_EXP: &str = "e3";
/// Trials of a cold miss: two tiles per estimate.
const COLD_TRIALS: usize = 128;
/// Trials of a growth request on an earlier cold seed: the first two
/// tiles of each estimate hit the tile store, the other six are computed.
const GROW_TRIALS: usize = 512;
/// `/stream` budget and stop target.
const STREAM_TRIALS: usize = 512;
const STREAM_EPSILON: &str = "0.05";
/// Spacing of the mixed schedule; of every twelve slots, eight are cold
/// misses, one a growth request and one a stream, each of those two
/// followed by an empty slot.
const MIXED_EVERY: Duration = Duration::from_millis(40);
/// Share of the ladder's time the reference step gets.
const REFERENCE_SHARE: f64 = 0.6;
/// Offered warm rates; the first is the reference rate.
const LADDER_RPS: [f64; 5] = [8000.0, 16000.0, 32000.0, 64000.0, 128000.0];
/// Warm p99 limit a ladder step must meet (also stated in BENCHMARK.json).
const WARM_P99_LIMIT_MS: f64 = 25.0;
/// Requests the warm connection keeps in flight at most — below the
/// server's per-connection pipeline cap (64), past which it stops reading
/// the socket. When the pipeline is full, sends wait and the wait counts
/// against those requests' latency.
const MAX_OUTSTANDING: usize = 32;
/// A step whose last send went out later than this behind its schedule
/// had a growing backlog.
const BACKLOG_MS: f64 = 250.0;
/// Server starts per run; set-up time is their median.
const SETUP_STARTS: usize = 15;
/// Socket timeout for every client connection.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A running `fair-serve` child.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub tiles_dir: PathBuf,
}

impl Server {
    /// Spawns the server on a fresh tile directory and waits for
    /// `/healthz`; returns it with its set-up time.
    pub fn start(bin: &Path, tiles_dir: PathBuf) -> Result<(Server, f64), String> {
        if tiles_dir.exists() {
            std::fs::remove_dir_all(&tiles_dir).map_err(|e| format!("clear tiles dir: {e}"))?;
        }
        std::fs::create_dir_all(&tiles_dir).map_err(|e| format!("create tiles dir: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--loops",
                "1",
                "--workers",
                "1",
                "--tiles-dir",
            ])
            .arg(&tiles_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before printing its address".into());
            }
            addr = line
                .trim()
                .strip_prefix("ADDR=")
                .and_then(|a| a.parse().ok());
        }
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.ok_or("no address")?,
            tiles_dir,
        };
        loop {
            match client::get(server.addr, "/healthz") {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > TIMEOUT => {
                    server.kill();
                    return Err("server never became healthy".into());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The server's `/metrics` document.
    pub fn metrics(&self) -> Result<Json, String> {
        let reply = client::get(self.addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        json::parse(&reply.text())
    }

    /// Graceful `POST /shutdown`, then waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client::post(self.addr, "/shutdown");
        let t0 = Instant::now();
        while t0.elapsed() < TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    _ => Err(format!("server shutdown failed ({status})")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("server did not exit after /shutdown".into())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn estimate_target(exp: &str, trials: usize, seed: u64) -> String {
    format!("/estimate?exp={exp}&trials={trials}&seed={seed}")
}

/// A seed for item `k` of a request kind, drawn from the run seed.
fn derived_seed(run_seed: u64, kind: u64, k: u64) -> u64 {
    report::mix(run_seed ^ kind.rotate_left(40), k) % 1_000_000_000_000
}

/// One request of the mixed schedule.
pub struct MixedReq {
    pub kind: &'static str,
    pub trials: usize,
    pub seed: u64,
    /// Latency from when the request was due (first frame, for streams).
    pub ms: f64,
    /// How late the send went out, ms.
    pub late_ms: f64,
    /// Scheduled send time, seconds after the ladder started.
    pub at_s: f64,
    /// Body for the byte-identity check (estimates only).
    pub body: Option<Vec<u8>>,
    pub ok: bool,
}

/// One ladder step's outcome.
pub struct Step {
    pub rps: f64,
    pub sent: usize,
    pub lat_ms: Vec<f64>,
    pub failed: usize,
    pub hits: usize,
    pub late_ms: Vec<f64>,
    pub drain_s: f64,
    pub secs: f64,
    /// The generator ended the step more than `BACKLOG_MS` behind.
    pub backlogged: bool,
    /// The server's peak RSS so far, read when the step ended.
    pub peak_rss_mb: f64,
}

impl Step {
    /// Latencies with failures counted as missing every limit.
    fn lat_with_failures(&self) -> Vec<f64> {
        let mut v = self.lat_ms.clone();
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        v
    }

    pub fn p99(&self) -> f64 {
        report::percentile(&report::sorted(&self.lat_with_failures()), 0.99)
    }

    /// Meets the limit with no failures and no growing backlog.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && !self.backlogged
            && self.p99() <= WARM_P99_LIMIT_MS
            && self.drain_s * 1000.0 <= BACKLOG_MS
    }
}

/// Everything one serve run measured.
pub struct LoadRun {
    pub setup_s: Vec<f64>,
    pub steps: Vec<Step>,
    pub mixed: Vec<MixedReq>,
    pub peak_rss_mb: f64,
    pub metrics: Json,
    pub rtt_us: Option<f64>,
    /// Length of the reference step: the window the bounded cold-miss
    /// latencies come from, so they do not depend on how far the ladder
    /// climbed.
    pub reference_s: f64,
    pub tiles_dir: PathBuf,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// A counter of the `/metrics` document at `section.key` (0 if absent).
pub fn counter(metrics: &Json, section: &str, key: &str) -> f64 {
    match json::get(metrics, section).and_then(|s| json::get(s, key)) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Served bodies by key index.
type Bodies = Vec<(usize, Vec<u8>)>;

/// Computes the keys cold, split over two connections.
fn prefill(addr: SocketAddr, keys: &[(usize, u64)]) -> Result<Bodies, String> {
    let halves: Vec<Result<Bodies, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr, TIMEOUT).map_err(|e| e.to_string())?;
                    let mut got = Vec::new();
                    for (k, seed) in keys.iter().skip(half).step_by(2) {
                        conn.send(&estimate_target(WARM_EXP, WARM_TRIALS, *seed))
                            .map_err(|e| e.to_string())?;
                        let reply = conn.recv().map_err(|e| e.to_string())?;
                        if reply.status != 200 {
                            return Err(format!("prefill status {}", reply.status));
                        }
                        got.push((*k, reply.body));
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("prefill thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for half in halves {
        all.extend(half?);
    }
    Ok(all)
}

/// Runs the whole load against fresh servers. `ladder` is the time the
/// ladder may take; `probe_rtt` adds the unloaded round-trip probe.
pub fn run_load(args: &Args, ladder: Duration, probe_rtt: bool) -> Result<LoadRun, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUP_STARTS {
        let dir = args.work.join(format!("serve-tiles-{k}"));
        let (s, secs) = Server::start(&args.serve_bin, dir)?;
        setup_s.push(secs);
        if k + 1 < SETUP_STARTS {
            let dir = s.tiles_dir.clone();
            s.stop()?;
            let _ = std::fs::remove_dir_all(dir);
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server")?;
    let addr = server.addr;
    let mut failures = Vec::new();
    let mut attempted = 0u64;

    // Prefill: the working set, cold, closed loop over two connections.
    let warm_seeds: Vec<u64> = (0..WARM_KEYS as u64)
        .map(|k| {
            if k == 0 {
                BASE_SEED
            } else {
                derived_seed(args.seed, 1, k)
            }
        })
        .collect();
    let mut warm_bodies: Vec<Vec<u8>> = vec![Vec::new(); WARM_KEYS];
    let keys: Vec<(usize, u64)> = warm_seeds.iter().copied().enumerate().collect();
    for (k, body) in prefill(addr, &keys)? {
        warm_bodies[k] = body;
    }
    attempted += WARM_KEYS as u64;
    let warm_bodies = Arc::new(warm_bodies);

    // Ladder + mixed schedule.
    let stop = AtomicBool::new(false);
    let pid = server.pid();
    let ladder_start = Instant::now();
    let (steps, mixed) = std::thread::scope(|scope| {
        let mixed = scope.spawn(|| mixed_schedule(addr, args.seed, ladder_start, &stop));
        let steps = warm_ladder(addr, &pid, &warm_seeds, &warm_bodies, ladder);
        stop.store(true, Ordering::SeqCst);
        let mixed = mixed
            .join()
            .unwrap_or_else(|_| Err("mixed thread panicked".into()));
        (steps, mixed)
    });
    let steps = steps?;
    let mixed = mixed?;
    for s in &steps {
        attempted += s.sent as u64;
        if s.failed > 0 {
            failures.push(format!(
                "{} warm requests failed at {} rps",
                s.failed, s.rps
            ));
        }
    }
    for m in &mixed {
        attempted += 1;
        if !m.ok {
            failures.push(format!(
                "{} request {}@{} seed {} failed",
                m.kind, MIXED_EXP, m.trials, m.seed
            ));
        }
    }

    let rtt_us = if probe_rtt {
        Some(unloaded_rtt_us(addr, WARM_EXP, warm_seeds[0])?)
    } else {
        None
    };
    let metrics = server.metrics()?;
    let peak_rss_mb = report::peak_rss_mb(&server.pid()).ok_or("cannot read server RSS")?;
    let tiles_dir = server.tiles_dir.clone();
    server.stop()?;

    // Byte identity against batch documents, computed here after the
    // server has stopped so the check does not load the measurement.
    let pins = Pins::load(&args.pins)?;
    for (k, seed) in warm_seeds.iter().enumerate() {
        let body = &warm_bodies[k];
        attempted += 1;
        let expect = fair_bench::servecli::rendered_result(WARM_EXP, WARM_TRIALS, *seed)
            .ok_or("unknown warm experiment")?;
        if expect.as_bytes() != body.as_slice() {
            failures.push(format!(
                "served {WARM_EXP}@{WARM_TRIALS} seed {seed} differs from batch"
            ));
        }
        if *seed == BASE_SEED {
            if let Err(e) = pins.check(WARM_EXP, WARM_TRIALS, BASE_SEED, body) {
                failures.push(e);
            }
        }
    }
    for m in mixed.iter().filter(|m| m.ok) {
        if let Some(body) = &m.body {
            attempted += 1;
            let expect = fair_bench::servecli::rendered_result(MIXED_EXP, m.trials, m.seed)
                .ok_or("unknown mixed experiment")?;
            if expect.as_bytes() != body.as_slice() {
                failures.push(format!(
                    "served {}@{} seed {} differs from batch",
                    MIXED_EXP, m.trials, m.seed
                ));
            }
        }
    }
    Ok(LoadRun {
        setup_s,
        steps,
        mixed,
        peak_rss_mb,
        metrics,
        rtt_us,
        reference_s: ladder.as_secs_f64() * REFERENCE_SHARE,
        tiles_dir,
        attempted,
        failures,
    })
}

/// Reads one `Content-Length` reply: `(status, x-cache hit, body)`.
fn read_reply(r: &mut BufReader<TcpStream>) -> std::io::Result<(u16, bool, Vec<u8>)> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut len = 0usize;
    let mut hit = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("closed mid-head"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(std::io::Error::other)?;
            } else if k.eq_ignore_ascii_case("x-cache") {
                hit = matches!(v.trim(), "hit" | "wait");
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, hit, body))
}

/// The warm ladder on one pipelined connection: a writer sends every
/// request that is due (so sends keep to the schedule while replies are
/// outstanding), a reader matches replies in order. The reference step
/// gets a third of the time; the ladder stops after the first step that
/// misses the limit.
fn warm_ladder(
    addr: SocketAddr,
    server_pid: &str,
    seeds: &[u64],
    bodies: &Arc<Vec<Vec<u8>>>,
    budget: Duration,
) -> Result<Vec<Step>, String> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let requests: Vec<Vec<u8>> = seeds
        .iter()
        .map(|seed| {
            let target = estimate_target(WARM_EXP, WARM_TRIALS, *seed);
            format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n").into_bytes()
        })
        .collect();
    let (tx, rx) = mpsc::channel::<(Instant, usize, usize)>();
    let received = AtomicUsize::new(0);
    let broken = AtomicBool::new(false);
    let tallies: Mutex<Vec<Step>> = Mutex::new(Vec::new());
    let ref_secs = budget.as_secs_f64() * REFERENCE_SHARE;
    let step_secs = (budget.as_secs_f64() - ref_secs) / (LADDER_RPS.len() - 1) as f64;

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut r = BufReader::with_capacity(1 << 16, stream);
            for (scheduled, key, step) in rx {
                let res = if broken.load(Ordering::SeqCst) {
                    Err(std::io::Error::other("connection broken"))
                } else {
                    read_reply(&mut r)
                };
                let ms = scheduled.elapsed().as_secs_f64() * 1000.0;
                let mut t = tallies.lock().expect("tally lock");
                let s = &mut t[step];
                match res {
                    Ok((200, hit, body)) if body == bodies[key] => {
                        s.lat_ms.push(ms);
                        s.hits += usize::from(hit);
                    }
                    Ok(_) => s.failed += 1,
                    Err(e) => {
                        s.failed += 1;
                        if !broken.swap(true, Ordering::SeqCst) {
                            eprintln!("perfbench: warm connection failed at {} rps: {e}", s.rps);
                        }
                    }
                }
                drop(t);
                received.fetch_add(1, Ordering::SeqCst);
            }
        });
        let mut sent_total = 0usize;
        for (step, rps) in LADDER_RPS.iter().enumerate() {
            let secs = if step == 0 { ref_secs } else { step_secs };
            let n = (rps * secs).round() as usize;
            tallies.lock().expect("tally lock").push(Step {
                rps: *rps,
                sent: n,
                lat_ms: Vec::with_capacity(n),
                failed: 0,
                hits: 0,
                late_ms: Vec::with_capacity(n),
                drain_s: 0.0,
                secs,
                backlogged: false,
                peak_rss_mb: f64::NAN,
            });
            let start = Instant::now();
            let mut late = Vec::with_capacity(n);
            let mut i = 0usize;
            let mut batch = Vec::with_capacity(64 * 1024);
            while i < n && !broken.load(Ordering::SeqCst) {
                let now = Instant::now();
                let due = (((now - start).as_secs_f64() * rps).floor() as usize + 1).min(n);
                let outstanding = (sent_total + i).saturating_sub(received.load(Ordering::SeqCst));
                let room = MAX_OUTSTANDING.saturating_sub(outstanding);
                let upto = due.min(i + room);
                if upto > i {
                    batch.clear();
                    for j in i..upto {
                        let key = (j * 7 + step * 13) % bodies.len();
                        batch.extend_from_slice(&requests[key]);
                        let scheduled = start + Duration::from_secs_f64(j as f64 / rps);
                        late.push((now - scheduled).as_secs_f64() * 1000.0);
                        let _ = tx.send((scheduled, key, step));
                    }
                    if writer.write_all(&batch).is_err() {
                        broken.store(true, Ordering::SeqCst);
                    }
                    i = upto;
                } else if due > i {
                    // Pipeline full: wait for replies; the wait counts
                    // against the waiting requests' latency.
                    std::thread::yield_now();
                } else {
                    let next = start + Duration::from_secs_f64(i as f64 / rps);
                    let gap = next.saturating_duration_since(Instant::now());
                    if gap > Duration::from_micros(200) {
                        std::thread::sleep(gap - Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
            let backlogged = late.last().is_some_and(|ms| *ms > BACKLOG_MS);
            let end = Instant::now();
            sent_total += i;
            while received.load(Ordering::SeqCst) < sent_total && end.elapsed() < TIMEOUT {
                std::thread::sleep(Duration::from_micros(200));
            }
            let drain_s = end.elapsed().as_secs_f64();
            let peak_rss_mb = report::peak_rss_mb(server_pid).unwrap_or(f64::NAN);
            let passes = {
                let mut t = tallies.lock().expect("tally lock");
                let s = &mut t[step];
                s.sent = i;
                s.late_ms = late;
                s.drain_s = drain_s;
                s.backlogged = backlogged;
                s.peak_rss_mb = peak_rss_mb;
                s.passes()
            };
            if !passes || broken.load(Ordering::SeqCst) {
                break;
            }
        }
        drop(tx);
        let _ = reader.join();
    });
    let steps = tallies.into_inner().map_err(|_| "tally lock poisoned")?;
    Ok(steps)
}

/// The mixed schedule on the second connection, until `stop` is set.
fn mixed_schedule(
    addr: SocketAddr,
    run_seed: u64,
    start: Instant,
    stop: &AtomicBool,
) -> Result<Vec<MixedReq>, String> {
    let mut conn: Option<Conn> = None;
    let mut done: Vec<MixedReq> = Vec::new();
    let mut last_cold = None;
    let mut prev_done = start;
    for k in 0u64.. {
        let scheduled = start + MIXED_EVERY * k as u32;
        let gap = scheduled.saturating_duration_since(Instant::now());
        std::thread::sleep(gap);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let late_ms = scheduled.elapsed().as_secs_f64() * 1000.0;
        // When the previous reply came after this request's scheduled time,
        // a server stall delayed it, and latency counts from the schedule.
        // Otherwise it counts from the send: the generator's own wake-up
        // delay is reported as lateness, not charged to the server.
        let due = if prev_done > scheduled {
            scheduled
        } else {
            Instant::now()
        };
        let (kind, trials, seed) = match (k % 12, last_cold) {
            // Each heavy request is followed by an empty slot, so no cold
            // miss queues behind a growth request or a stream.
            (9 | 11, _) => continue,
            (8, Some(seed)) => ("grow", GROW_TRIALS, seed),
            (10, _) => ("stream", STREAM_TRIALS, derived_seed(run_seed, 3, k)),
            _ => ("cold", COLD_TRIALS, derived_seed(run_seed, 2, k)),
        };
        let mut req = MixedReq {
            kind,
            trials,
            seed,
            ms: f64::INFINITY,
            late_ms,
            at_s: (scheduled - start).as_secs_f64(),
            body: None,
            ok: false,
        };
        if kind == "stream" {
            // A stream gets a connection of its own; closing the estimate
            // connection first keeps the generator at two sockets.
            conn = None;
            if let Ok(first) = stream_first_frame(addr, seed, due) {
                req.ms = first;
                req.ok = true;
            }
        } else {
            let c = match conn.as_mut() {
                Some(c) => c,
                None => conn.insert(Conn::connect(addr, TIMEOUT).map_err(|e| e.to_string())?),
            };
            let sent = c.send(&estimate_target(MIXED_EXP, trials, seed));
            let reply = sent.and_then(|()| c.recv());
            req.ms = due.elapsed().as_secs_f64() * 1000.0;
            match reply {
                Ok(r) if r.status == 200 => {
                    req.ok = true;
                    req.body = Some(r.body);
                    if kind == "cold" {
                        last_cold = Some(seed);
                    }
                }
                Ok(_) => {}
                Err(_) => conn = None,
            }
        }
        prev_done = Instant::now();
        done.push(req);
    }
    Ok(done)
}

/// One `/stream` request on its own connection: milliseconds from `due`
/// to the first complete progress frame. The stream is
/// read to its end and must close with the result document.
fn stream_first_frame(addr: SocketAddr, seed: u64, due: Instant) -> Result<f64, String> {
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "GET /stream?exp={MIXED_EXP}&trials={STREAM_TRIALS}&seed={seed}&epsilon={STREAM_EPSILON} \
         HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    );
    s.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut decoder = Dechunker::new();
    let mut body = Vec::new();
    let mut head_end = None;
    let mut first = None;
    loop {
        let n = s.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        match head_end {
            None => {
                raw.extend_from_slice(&chunk[..n]);
                if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                    if !raw.starts_with(b"HTTP/1.1 200") {
                        return Err("stream status not 200".into());
                    }
                    head_end = Some(pos + 4);
                    decoder.push(&raw[pos + 4..], &mut body);
                }
            }
            Some(_) => {
                decoder.push(&chunk[..n], &mut body);
            }
        }
        if first.is_none() && !body.is_empty() {
            first = Some(due.elapsed().as_secs_f64() * 1000.0);
        }
        if decoder.done() {
            break;
        }
    }
    let text = String::from_utf8_lossy(&body);
    match first {
        Some(ms) if decoder.done() && text.contains("\"adaptive\"") => Ok(ms),
        _ => Err("stream ended without its result document".into()),
    }
}

/// Median round trip of sequential warm requests on an idle connection, µs.
fn unloaded_rtt_us(addr: SocketAddr, exp: &str, seed: u64) -> Result<f64, String> {
    let mut conn = Conn::connect(addr, TIMEOUT).map_err(|e| e.to_string())?;
    let target = estimate_target(exp, WARM_TRIALS, seed);
    let mut us = Vec::new();
    for _ in 0..2000 {
        let t0 = Instant::now();
        conn.send(&target).map_err(|e| e.to_string())?;
        let r = conn.recv().map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("rtt probe status {}", r.status));
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// Protocol executions behind one result document, counted by running
/// it once in this process with the trace counters on.
fn executions_per_doc(exp: &str, trials: usize, seed: u64) -> Result<f64, String> {
    fair_trace::metrics::set_enabled(true);
    let doc = fair_bench::servecli::rendered_result(exp, trials, seed);
    let protocols = fair_trace::metrics::drain();
    fair_trace::metrics::set_enabled(false);
    doc.ok_or_else(|| format!("unknown experiment {exp}"))?;
    Ok(protocols.iter().map(|p| p.trials as f64).sum())
}

/// Quantile summary line for one request kind.
fn kind_line(name: &str, xs: &[f64]) -> String {
    let (tail, label) = report::tail(xs);
    format!(
        "{name}: n={} p50 {:.3} ms, {label} {:.3} ms",
        xs.len(),
        median(xs),
        tail
    )
}

/// Latencies of one mixed request kind, all of them or only those sent
/// during the reference step.
pub fn mixed_ms(run: &LoadRun, kind: &str, reference_only: bool) -> Vec<f64> {
    run.mixed
        .iter()
        .filter(|m| m.kind == kind && (!reference_only || m.at_s < run.reference_s))
        .map(|m| m.ms)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ladder = args
        .seconds
        .saturating_sub(Duration::from_secs(10))
        .max(Duration::from_secs(3));
    let load = run_load(args, ladder, false)?;
    let mut out = Outcome {
        correct: true,
        attempted: load.attempted,
        ..Outcome::default()
    };
    for f in &load.failures {
        out.fail(f.clone());
    }
    let reference = load.steps.first().ok_or("ladder ran no step")?;
    let warm = reference.lat_with_failures();
    let (warm_tail, warm_tail_label) = report::tail(&warm);
    let cold = mixed_ms(&load, "cold", true);
    let (tail, tail_label) = report::tail(&cold);
    let max_rps = load
        .steps
        .iter()
        .take_while(|s| s.passes())
        .last()
        .map_or(0.0, |s| s.rps);
    for s in &load.steps {
        let late = report::sorted(&s.late_ms);
        out.line(format!(
            "ladder {:>6} rps for {:.1}s: sent {} ok {} failed {} hits {} p50 {:.3} ms p99 {:.3} ms \
             p99.9 {:.3} ms, drain {:.3}s, generator lateness p99 {:.3} ms max {:.3} ms{}",
            s.rps,
            s.secs,
            s.sent,
            s.lat_ms.len(),
            s.failed,
            s.hits,
            median(&s.lat_ms),
            s.p99(),
            report::percentile(&report::sorted(&s.lat_with_failures()), 0.999),
            s.drain_s,
            report::percentile(&late, 0.99),
            late.last().copied().unwrap_or(0.0),
            match (s.passes(), s.backlogged) {
                (true, _) => "",
                (false, true) => "  (backlog: sends fell behind the schedule)",
                (false, false) => "  (misses the limit)",
            }
        ));
    }
    let ref_late = report::sorted(&reference.late_ms);
    let late_p99 = report::percentile(&ref_late, 0.99);
    if late_p99 > 1.0 {
        out.line(format!(
            "FLAG: generator ran late at the reference rate (p99 {late_p99:.3} ms)"
        ));
    }
    let mixed_late: Vec<f64> = load.mixed.iter().map(|m| m.late_ms).collect();
    out.line(format!(
        "warm_max_rps = {max_rps} req/s (highest step with p99 <= {WARM_P99_LIMIT_MS} ms, no failures, no backlog)"
    ));
    out.line(format!(
        "warm at the reference rate {} rps: n={} p50 {:.4} ms, {warm_tail_label} {:.4} ms (warm_p50_ms, warm_p99_ms)",
        reference.rps,
        warm.len(),
        median(&warm),
        warm_tail
    ));
    out.line(kind_line(
        "cold_ms during the reference step (cold_p50_ms, cold_tail_ms)",
        &cold,
    ));
    out.line(kind_line(
        "cold_ms over the whole ladder",
        &mixed_ms(&load, "cold", false),
    ));
    out.line(kind_line(
        "grow_ms (grow_p50_ms)",
        &mixed_ms(&load, "grow", false),
    ));
    out.line(kind_line(
        "stream_first_frame_ms",
        &mixed_ms(&load, "stream", false),
    ));
    out.line(format!(
        "mixed schedule lateness: p50 {:.3} ms max {:.3} ms",
        median(&mixed_late),
        mixed_late.iter().copied().fold(0.0, f64::max)
    ));
    out.line(format!(
        "server: cache hits {} misses {} waits {}, 429 {}, 503 {}, streams {}, pipelined {}",
        counter(&load.metrics, "server", "cache_hits"),
        counter(&load.metrics, "server", "cache_misses"),
        counter(&load.metrics, "server", "cache_waits"),
        counter(&load.metrics, "server", "status_429"),
        counter(&load.metrics, "server", "status_503"),
        counter(&load.metrics, "server", "streams"),
        counter(&load.metrics, "server", "pipelined_requests"),
    ));
    let _ = std::fs::remove_dir_all(&load.tiles_dir);
    out.metric(
        "setup_s",
        median(&load.setup_s),
        "s",
        load.setup_s.len(),
        "median spawn -> bound -> /healthz 200 on an empty tile dir",
    );
    let execs = executions_per_doc(MIXED_EXP, COLD_TRIALS, derived_seed(args.seed, 2, 0))?;
    // One cold document is the serving path's unit of fixed work; its
    // median time is the same statistic as p50_ms, in seconds.
    let doc_s = median(&cold) / 1000.0;
    out.metric(
        "wall_s",
        doc_s,
        "s",
        cold.len(),
        "median cold miss of the reference step: one fresh document over HTTP",
    );
    out.metric(
        "trials_per_s",
        execs / doc_s,
        "1/s",
        cold.len(),
        "protocol executions of one cold miss / wall_s",
    );
    out.line(format!(
        "server peak RSS over the whole run: {:.3} MB",
        load.peak_rss_mb
    ));
    out.metric(
        "peak_rss_mb",
        reference.peak_rss_mb,
        "MB",
        1,
        "server peak RSS at the end of the reference step",
    );
    out.metric(
        "p50_ms",
        median(&cold),
        "ms",
        cold.len(),
        "cold miss during the reference step: freshly computed document over HTTP",
    );
    out.line(format!(
        "tail_ms (not bounded) {tail} ms: {tail_label} cold miss during the reference step, n={}",
        cold.len()
    ));
    Ok(out)
}
