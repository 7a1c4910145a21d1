//! `GET /stream` — progressive estimation over chunked transfer encoding.
//!
//! This file is inside fairlint's S2 scope (it handles untrusted request
//! parameters), so every path is total — no `unwrap`/`expect`/`panic!`.
//!
//! Unlike `/estimate`, a streaming response is written *while the
//! computation runs*: the backend's adaptive path emits a progress frame
//! (running mean + 95% half-width) after every tile batch, each frame goes
//! out as one `application/x-ndjson` chunk, and the final chunk carries
//! the wrapper document — the adaptive accounting plus the result for the
//! trials actually spent. The stop rule (`ci <= epsilon`) lives in
//! `fair-core`; this layer only validates parameters and frames bytes.
//!
//! The handler runs on a worker and never sees the socket: the event loop
//! hands it a `Write` sink whose every `flush()` ships the buffered bytes
//! back to the loop, which writes them in pipeline order like any other
//! reply. One flush per chunk is what makes frames reach the client live.
//!
//! Streaming responses bypass the result cache (the body depends on the
//! live convergence trajectory, and adaptive results are keyed by epsilon,
//! not just the point), but they share the tile store: tiles computed
//! while streaming warm every later request, and vice versa.

use std::io::Write;

use fair_simlab::json::Json;

use crate::http::{Request, Response};
use crate::service::{parse_seed, parse_trials, ProgressUpdate, Service};
use crate::stats::ServerStats;

/// Handles one `/stream` request end to end on `conn` (the connection
/// layer routes here *before* the normal request path — a streaming body
/// is written while the estimation runs). Counts the request and its
/// status itself.
pub fn handle(service: &Service, conn: &mut dyn Write, req: &Request) {
    ServerStats::bump(&service.stats.requests);
    match validate(service, req) {
        Ok(params) => run_stream(service, conn, params),
        Err(resp) => {
            service.stats.count_status(resp.status);
            let _ = conn.write_all(&resp.to_bytes());
            let _ = conn.flush();
        }
    }
}

struct StreamParams {
    exp: String,
    trials: usize,
    seed: u64,
    epsilon: f64,
}

fn validate(service: &Service, req: &Request) -> Result<StreamParams, Response> {
    if req.method != "GET" {
        return Err(Response::error(405, "use GET /stream"));
    }
    let exp = match req.query_param("exp") {
        Some(e) if !e.is_empty() => e.to_string(),
        _ => {
            return Err(Response::error(
                400,
                "missing required query parameter `exp`",
            ))
        }
    };
    let config = service.config();
    let trials = parse_trials(req, config.default_trials, config.max_trials)?;
    let seed = parse_seed(req, config.default_seed)?;
    let epsilon = match req.query_param("epsilon") {
        None => 0.0,
        Some(raw) => match raw.parse::<f64>() {
            Ok(e) if e.is_finite() && e >= 0.0 => e,
            Ok(e) => {
                return Err(Response::error(
                    400,
                    &format!("epsilon={e} must be finite and non-negative"),
                ))
            }
            Err(err) => return Err(Response::error(400, &format!("bad epsilon={raw:?}: {err}"))),
        },
    };
    if !service.knows_experiment(&exp) {
        return Err(Response::error(404, &format!("unknown experiment `{exp}`")));
    }
    Ok(StreamParams {
        exp,
        trials,
        seed,
        epsilon,
    })
}

fn run_stream(service: &Service, conn: &mut dyn Write, params: StreamParams) {
    ServerStats::bump(&service.stats.streams);
    service.stats.count_status(200);
    let head = "HTTP/1.1 200 OK\r\n\
                Content-Type: application/x-ndjson\r\n\
                Transfer-Encoding: chunked\r\n\
                Connection: close\r\n\r\n";
    if conn.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut early = false;
    let result = {
        let early = &mut early;
        let frame_conn = &mut *conn;
        let mut emit = move |update: ProgressUpdate| {
            if update.done && update.trials < update.requested {
                *early = true;
            }
            let line = frame_json(&update).render() + "\n";
            let _ = write_chunk(frame_conn, line.as_bytes());
        };
        service.backend().estimate_progressive(
            &params.exp,
            params.trials,
            params.seed,
            params.epsilon,
            &mut emit,
        )
    };
    match result {
        Some(doc) => {
            let _ = write_chunk(conn, doc.as_bytes());
        }
        None => {
            let _ = write_chunk(conn, b"{\"error\":\"progressive estimation failed\"}\n");
        }
    }
    let _ = conn.write_all(b"0\r\n\r\n");
    let _ = conn.flush();
    if early {
        ServerStats::bump(&service.stats.stream_early_stops);
    }
    // Streamed tiles are as warm as served ones: persist them.
    fair_tiles::cache::flush();
}

fn frame_json(update: &ProgressUpdate) -> Json {
    Json::obj()
        .field("scenario", Json::str(&update.scenario))
        .field("requested", Json::num(update.requested as f64))
        .field("trials", Json::num(update.trials as f64))
        .field("mean", Json::Num(update.mean))
        .field("ci", Json::Num(update.ci))
        .field("done", Json::Bool(update.done))
        .canonical()
}

/// One chunked-transfer chunk: hex size line, payload, CRLF. Flushed so
/// the client observes progress frames as they happen, not at close.
fn write_chunk(conn: &mut dyn Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(conn, "{:x}\r\n", data.len())?;
    conn.write_all(data)?;
    conn.write_all(b"\r\n")?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Backend;
    use crate::service::ServiceConfig;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    struct StreamingMock;

    impl Backend for StreamingMock {
        fn experiments(&self) -> Vec<(String, String)> {
            vec![("e1".to_string(), "mock".to_string())]
        }
        fn estimate(&self, _exp: &str, _trials: usize, _seed: u64) -> Option<String> {
            None
        }
        fn estimate_progressive(
            &self,
            exp: &str,
            trials: usize,
            _seed: u64,
            epsilon: f64,
            emit: &mut dyn FnMut(ProgressUpdate),
        ) -> Option<String> {
            if exp != "e1" {
                return None;
            }
            // Two frames: one in-flight, one converged early.
            for (t, done) in [(256usize, false), (512, true)] {
                emit(ProgressUpdate {
                    scenario: "mock/scenario".into(),
                    requested: trials,
                    trials: t,
                    mean: 0.5,
                    ci: if done { epsilon } else { 2.0 * epsilon },
                    done,
                });
            }
            Some("{\"adaptive\":{},\"result\":{}}\n".to_string())
        }
    }

    fn service() -> Service {
        Service::new(
            Arc::new(StreamingMock),
            ServiceConfig::default(),
            Arc::new(AtomicBool::new(false)),
        )
    }

    fn stream_get(svc: &Service, target: &str) -> Vec<u8> {
        let head = format!("GET {target} HTTP/1.1\r\n");
        let req = crate::http::parse_request(head.as_bytes()).expect("test request parses");
        let mut out = Vec::new();
        handle(svc, &mut out, &req);
        out
    }

    #[test]
    fn streams_frames_then_wrapper_then_terminal_chunk() {
        let svc = service();
        let raw = stream_get(&svc, "/stream?exp=e1&trials=1000&seed=7&epsilon=0.05");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("\"trials\":256"));
        assert!(text.contains("\"done\":true"));
        assert!(text.contains("\"adaptive\""));
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text:?}");
        // The early-converged mock (512 < 1000) ticks the counter.
        assert_eq!(
            svc.stats
                .stream_early_stops
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            svc.stats.streams.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn rejects_bad_parameters_without_streaming() {
        let svc = service();
        for (target, code) in [
            ("/stream", "400"),
            ("/stream?exp=unknown", "404"),
            ("/stream?exp=e1&epsilon=nope", "400"),
            ("/stream?exp=e1&epsilon=-0.5", "400"),
            ("/stream?exp=e1&epsilon=inf", "400"),
            ("/stream?exp=e1&trials=0", "400"),
        ] {
            let raw = stream_get(&svc, target);
            let text = String::from_utf8_lossy(&raw);
            assert!(
                text.starts_with(&format!("HTTP/1.1 {code}")),
                "{target} → {text}"
            );
            assert!(!text.contains("chunked"), "{target} must not stream");
        }
        let req = crate::http::parse_request(b"POST /stream HTTP/1.1\r\n").expect("parses");
        let mut out = Vec::new();
        handle(&svc, &mut out, &req);
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 405"));
    }
}
