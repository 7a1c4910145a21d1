//! Glue between the experiment registry and `fair-serve`: the
//! [`ExperimentBackend`] the `fair-serve` binary hosts, and the
//! closed-loop load generator behind `fair-load`.
//!
//! The backend renders the **deterministic result document**
//! ([`fair_simlab::result_json`]) — the same canonical subset the batch
//! runner persists — so a served body for `(exp, trials, seed)` is
//! byte-identical to the corresponding batch record, cold or cached.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fair_serve::service::Backend;
use fair_serve::{client, Conn, HttpReply};
use fair_simlab::json::{self, Json};
use fair_simlab::ProgressUpdate;
use fair_trace::QuantileSummary;

/// Where `fair-load` persists its run record by default.
pub const LOAD_RECORD_PATH: &str = "target/simlab/serve_load.json";

/// The real registry as a serve backend.
pub struct ExperimentBackend;

impl Backend for ExperimentBackend {
    fn experiments(&self) -> Vec<(String, String)> {
        crate::experiment_listing()
    }

    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
        rendered_result(exp, trials, seed)
    }

    fn estimate_progressive(
        &self,
        exp: &str,
        trials: usize,
        seed: u64,
        epsilon: f64,
        emit: &mut dyn FnMut(ProgressUpdate),
    ) -> Option<String> {
        progressive_result(exp, trials, seed, epsilon, emit)
    }
}

/// Runs `(exp, trials, seed)` and renders its canonical result document —
/// the exact bytes both the serve path and the byte-identity tests use.
/// When a tile store is installed, previously computed 64-trial tiles are
/// reused and newly computed ones are recorded.
pub fn rendered_result(exp: &str, trials: usize, seed: u64) -> Option<String> {
    let report = crate::run_experiment(exp, trials, seed)?;
    Some(fair_simlab::result_json(exp, trials, seed, &report).render_pretty() + "\n")
}

/// Runs `(exp, trials, seed)` adaptively — each `estimate()` inside the
/// experiment stops once its 95% half-width reaches `epsilon` — invoking
/// `emit` with a progress frame per tile batch. Returns the wrapper
/// document: the adaptive accounting plus the canonical result for the
/// trials actually spent. The computation runs on a worker thread so the
/// caller's `emit` (which may be writing to a live socket) observes frames
/// as they happen.
pub fn progressive_result(
    exp: &str,
    trials: usize,
    seed: u64,
    epsilon: f64,
    emit: &mut dyn FnMut(ProgressUpdate),
) -> Option<String> {
    crate::lookup(exp)?;
    let (tx, rx) = mpsc::channel();
    let (report, adaptive) = std::thread::scope(|scope| {
        let worker =
            scope.spawn(move || crate::runner::run_adaptive(exp, trials, seed, epsilon, Some(tx)));
        // Relay frames while the worker runs; the channel closes when the
        // scoped context (and its Sender) drops.
        for update in rx {
            emit(update);
        }
        worker.join().unwrap_or((None, Default::default()))
    });
    let doc = Json::obj()
        .field("adaptive", adaptive.to_json())
        .field(
            "result",
            fair_simlab::result_json(exp, trials, seed, &report?),
        )
        .canonical();
    Some(doc.render_pretty() + "\n")
}

/// Parameters of one `fair-load` run.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent closed-loop clients in the warm phase.
    pub clients: usize,
    /// Distinct parameter points (seeds `0..points`).
    pub points: usize,
    /// Warm passes over the whole point set per client.
    pub repeat: usize,
    /// Experiment id to query.
    pub exp: String,
    /// Trials per estimate.
    pub trials: usize,
    /// Persistent keep-alive connections for the warm phase. `0` keeps
    /// the one-shot mode: a fresh connection per request, `clients`
    /// threads. Nonzero switches the warm phase onto `connections`
    /// long-lived sockets.
    pub connections: usize,
    /// Requests pipelined per batch on each persistent connection
    /// (ignored in the one-shot mode; `1` = strict request/reply).
    pub pipeline: usize,
}

impl LoadOptions {
    /// The warm-phase mode this option set selects.
    pub fn mode(&self) -> &'static str {
        if self.connections > 0 {
            "persistent"
        } else {
            "oneshot"
        }
    }
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            clients: 4,
            points: 6,
            repeat: 8,
            exp: "e1".to_string(),
            trials: 50,
            connections: 0,
            pipeline: 1,
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Which warm-phase mode ran (`oneshot` or `persistent`).
    pub mode: String,
    /// Latency quantiles of the cold phase (nanoseconds per request).
    pub cold_ns: QuantileSummary,
    /// Tile-store hits the server counted during the cold phase (`None`
    /// when it runs without a tile store). Above 0, the cold phase reused
    /// tiles an earlier run left on disk and was not cold.
    pub cold_tile_hits: Option<u64>,
    /// Cold-phase replies served from the server's response cache
    /// (`X-Cache: hit`/`wait`). Above 0, an earlier run against the same
    /// server had already computed those points and the cold phase was not
    /// cold.
    pub cold_cache_hits: u64,
    /// Latency quantiles of the warm phase (nanoseconds per request).
    pub warm_ns: QuantileSummary,
    /// Requests that failed (transport error or non-200).
    pub errors: u64,
    /// Warm responses served from the cache (`X-Cache: hit`/`wait`).
    pub warm_hits: u64,
    /// Warm requests issued.
    pub warm_requests: u64,
    /// Warm-phase throughput, successful requests per second.
    pub warm_rps: f64,
    /// Total requests issued across both phases.
    pub total_requests: u64,
}

impl LoadReport {
    /// Warm cache hit rate in `[0, 1]`.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_requests == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_requests as f64
        }
    }

    /// How many times faster the warm median is than the cold median.
    pub fn p50_speedup(&self) -> f64 {
        if self.warm_ns.p50 == 0 {
            f64::INFINITY
        } else {
            self.cold_ns.p50 as f64 / self.warm_ns.p50 as f64
        }
    }
}

/// The server's `/metrics` `tiles.hits` counter, or `None` when it runs
/// without a tile store (or the document cannot be read).
fn tile_hits(addr: SocketAddr) -> Option<u64> {
    let reply = client::get(addr, "/metrics").ok()?;
    let doc = json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    match json::get(json::get(&doc, "tiles")?, "hits")? {
        Json::Num(hits) => Some(*hits as u64),
        _ => None,
    }
}

fn timed_get(addr: SocketAddr, target: &str) -> (u64, Option<HttpReply>) {
    let t0 = Instant::now();
    let reply = client::get(addr, target);
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, reply.ok())
}

/// Socket timeout for the warm-phase persistent connections.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// One warm worker's tally: latency samples, cache hits, errors.
type WorkerTally = (Vec<u64>, u64, u64);

fn tally_reply(
    reply: Option<&HttpReply>,
    ns: u64,
    samples: &mut Vec<u64>,
    hits: &mut u64,
    errors: &mut u64,
) {
    match reply {
        Some(r) if r.status == 200 => {
            samples.push(ns);
            if matches!(r.header("x-cache"), Some("hit") | Some("wait")) {
                *hits += 1;
            }
        }
        _ => *errors += 1,
    }
}

/// One-shot warm worker: a fresh connection per request (the legacy
/// closed-loop mode).
fn oneshot_sweep(opts: &LoadOptions, target_for: &dyn Fn(usize) -> String) -> WorkerTally {
    let mut samples = Vec::with_capacity(opts.repeat * opts.points);
    let mut hits = 0u64;
    let mut errors = 0u64;
    for _ in 0..opts.repeat {
        for seed in 0..opts.points {
            let (ns, reply) = timed_get(opts.addr, &target_for(seed));
            tally_reply(reply.as_ref(), ns, &mut samples, &mut hits, &mut errors);
        }
    }
    (samples, hits, errors)
}

/// Persistent closed-loop worker: one keep-alive connection sweeping the
/// point set `repeat` times, `pipeline` requests per batch. Per-request
/// latency is measured from the batch send, so deeper pipelines trade
/// individual latency for throughput — exactly what the mode measures.
fn persistent_sweep(opts: &LoadOptions, target_for: &dyn Fn(usize) -> String) -> WorkerTally {
    let total = opts.repeat * opts.points;
    let mut samples = Vec::with_capacity(total);
    let mut hits = 0u64;
    let mut errors = 0u64;
    let Ok(mut conn) = Conn::connect(opts.addr, CONN_TIMEOUT) else {
        return (samples, hits, total as u64);
    };
    let targets: Vec<String> = (0..total).map(|i| target_for(i % opts.points)).collect();
    let mut sent = 0usize;
    for batch in targets.chunks(opts.pipeline.max(1)) {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        if conn.send_many(&refs).is_err() {
            errors += (total - sent) as u64;
            return (samples, hits, errors);
        }
        for _ in batch {
            sent += 1;
            match conn.recv() {
                Ok(reply) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    tally_reply(Some(&reply), ns, &mut samples, &mut hits, &mut errors);
                }
                Err(_) => {
                    errors += (total - sent + 1) as u64;
                    return (samples, hits, errors);
                }
            }
        }
    }
    (samples, hits, errors)
}

/// Drives the load: a sequential **cold phase** touching each point once
/// (every request a miss on a fresh server), then a concurrent **warm
/// phase** in the mode [`LoadOptions::mode`] selects. The server's tile
/// hits across the cold phase land in [`LoadReport::cold_tile_hits`] and
/// its cached cold replies in [`LoadReport::cold_cache_hits`], each with a
/// warning on stderr when there were any:
///
/// - `oneshot` — `clients` threads, fresh connection per request,
///   closed loop (the next request waits for the previous reply).
/// - `persistent` — `connections` keep-alive sockets, optionally
///   pipelined `pipeline`-deep, closed loop per batch.
///
/// Open-loop measurement (a fixed offered rate, latency from the
/// scheduled send) lives in perfbench's `serve_mixed` workload.
pub fn run_load(opts: &LoadOptions) -> LoadReport {
    let target_for = |seed: usize| {
        format!(
            "/estimate?exp={}&trials={}&seed={seed}",
            opts.exp, opts.trials
        )
    };

    let mut errors = 0u64;
    let mut cold_samples = Vec::with_capacity(opts.points);
    let mut cold_cache_hits = 0u64;
    let hits_before = tile_hits(opts.addr);
    for seed in 0..opts.points {
        let (ns, reply) = timed_get(opts.addr, &target_for(seed));
        tally_reply(
            reply.as_ref(),
            ns,
            &mut cold_samples,
            &mut cold_cache_hits,
            &mut errors,
        );
    }
    let cold_tile_hits =
        hits_before.and_then(|before| Some(tile_hits(opts.addr)?.saturating_sub(before)));
    if let Some(hits) = cold_tile_hits.filter(|&h| h > 0) {
        eprintln!(
            "warning: the cold phase reused {hits} stored tiles; its latencies are not cold \
             (point fair-serve at an empty --tiles-dir or pass --no-tiles)"
        );
    }
    if cold_cache_hits > 0 {
        eprintln!(
            "warning: {cold_cache_hits} cold-phase replies came from the response cache; \
             its latencies are not cold (run the load against a freshly started fair-serve)"
        );
    }

    let mode = opts.mode();
    let threads = match mode {
        "oneshot" => opts.clients.max(1),
        _ => opts.connections.max(1),
    };

    let warm_t0 = Instant::now();
    let per_client: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let target_for = &target_for;
                scope.spawn(move || {
                    let target_for = |seed: usize| target_for(seed);
                    match mode {
                        "persistent" => persistent_sweep(opts, &target_for),
                        _ => oneshot_sweep(opts, &target_for),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((Vec::new(), 0, 1)))
            .collect()
    });
    let warm_wall_s = warm_t0.elapsed().as_secs_f64().max(1e-9);

    let mut warm_samples = Vec::new();
    let mut warm_hits = 0u64;
    let mut warm_ok = 0u64;
    for (samples, hits, errs) in per_client {
        warm_ok += samples.len() as u64;
        warm_samples.extend(samples);
        warm_hits += hits;
        errors += errs;
    }
    let warm_requests = (threads * opts.repeat * opts.points) as u64;
    LoadReport {
        mode: mode.to_string(),
        cold_ns: QuantileSummary::from_samples(cold_samples),
        cold_tile_hits,
        cold_cache_hits,
        warm_ns: QuantileSummary::from_samples(warm_samples),
        errors,
        warm_hits,
        warm_requests,
        warm_rps: warm_ok as f64 / warm_wall_s,
        total_requests: opts.points as u64 + warm_requests,
    }
}

fn quantile_fields(q: &QuantileSummary) -> Json {
    Json::obj()
        .field("count", Json::num(q.count as f64))
        .field("min_ns", Json::num(q.min as f64))
        .field("p50_ns", Json::num(q.p50 as f64))
        .field("p99_ns", Json::num(q.p99 as f64))
        .field("max_ns", Json::num(q.max as f64))
}

/// The persisted load-run document (canonical keys).
pub fn load_json(opts: &LoadOptions, report: &LoadReport) -> Json {
    Json::obj()
        .field("suite", Json::str("serve_load"))
        .field("mode", Json::str(&report.mode))
        .field("exp", Json::str(&opts.exp))
        .field("trials", Json::num(opts.trials as f64))
        .field("clients", Json::num(opts.clients as f64))
        .field("connections", Json::num(opts.connections as f64))
        .field("pipeline", Json::num(opts.pipeline as f64))
        .field("points", Json::num(opts.points as f64))
        .field("repeat", Json::num(opts.repeat as f64))
        .field("errors", Json::num(report.errors as f64))
        .field("total_requests", Json::num(report.total_requests as f64))
        .field("warm_requests", Json::num(report.warm_requests as f64))
        .field("warm_hits", Json::num(report.warm_hits as f64))
        .field("warm_hit_rate", Json::Num(report.warm_hit_rate()))
        .field("warm_rps", Json::Num(round1(report.warm_rps)))
        .field("p50_speedup", Json::Num(round1(report.p50_speedup())))
        .field("cold", quantile_fields(&report.cold_ns))
        .field("cold_cache_hits", Json::num(report.cold_cache_hits as f64))
        .field(
            "cold_tile_hits",
            report
                .cold_tile_hits
                .map_or(Json::Null, |h| Json::num(h as f64)),
        )
        .field("warm", quantile_fields(&report.warm_ns))
        .canonical()
}

fn round1(x: f64) -> f64 {
    if x.is_finite() {
        (x * 10.0).round() / 10.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_serves_the_registry_listing() {
        let listing = ExperimentBackend.experiments();
        assert_eq!(
            listing.len(),
            crate::ALL_EXPERIMENTS.len() + crate::scenario_exp::specs().len()
        );
        assert_eq!(listing[0].0, "e1");
        assert!(ExperimentBackend.estimate("e99", 10, 1).is_none());
    }

    #[test]
    fn rendered_result_matches_the_batch_record_document() {
        let body = rendered_result("e1", 15, 7).expect("e1 exists");
        let _serial = crate::runner::tests::recording_lock();
        let record = crate::runner::run_recorded("e1", 15, 7).expect("e1 exists");
        assert_eq!(body, record.result_json().render_pretty() + "\n");
    }

    #[test]
    fn load_report_derives_rates_safely() {
        let report = LoadReport {
            mode: "persistent".to_string(),
            cold_ns: QuantileSummary::from_samples(vec![1000, 2000]),
            cold_tile_hits: Some(3),
            cold_cache_hits: 2,
            warm_ns: QuantileSummary::from_samples(vec![100]),
            errors: 0,
            warm_hits: 9,
            warm_requests: 10,
            warm_rps: 123.4,
            total_requests: 12,
        };
        assert!((report.warm_hit_rate() - 0.9).abs() < 1e-12);
        assert!((report.p50_speedup() - 20.0).abs() < 1e-12);
        let json = load_json(&LoadOptions::default(), &report);
        let doc = json.render();
        assert!(doc.contains("\"warm_hit_rate\":0.9"));
        assert!(doc.contains("\"mode\":\"persistent\""));
        assert!(doc.contains("\"warm_rps\":123.4"));
        assert!(doc.contains("\"cold_tile_hits\":3"));
        assert!(doc.contains("\"cold_cache_hits\":2"));
        let no_store = LoadReport {
            cold_tile_hits: None,
            ..report.clone()
        };
        let doc = load_json(&LoadOptions::default(), &no_store).render();
        assert!(doc.contains("\"cold_tile_hits\":null"));
        // `warm_rps` is the record's only throughput field.
        let Json::Obj(fields) = json else {
            panic!("the record is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "clients",
                "cold",
                "cold_cache_hits",
                "cold_tile_hits",
                "connections",
                "errors",
                "exp",
                "mode",
                "p50_speedup",
                "pipeline",
                "points",
                "repeat",
                "suite",
                "total_requests",
                "trials",
                "warm",
                "warm_hit_rate",
                "warm_hits",
                "warm_requests",
                "warm_rps",
            ]
        );
    }
}
