//! Lock-free server tallies exported on `/metrics`.
//!
//! All counters are relaxed `AtomicU64`s: they are operational telemetry,
//! not part of the deterministic result surface, so ordering between them
//! does not matter — only that each increment lands exactly once.

use std::sync::atomic::{AtomicU64, Ordering};

use fair_simlab::json::Json;

/// Monotonic counters describing one server's lifetime.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Requests fully parsed.
    pub requests: AtomicU64,
    /// Responses by status class we actually emit.
    pub status_200: AtomicU64,
    /// Client errors (400/405/431): malformed requests, bad parameters.
    pub status_400: AtomicU64,
    /// Unknown routes or experiments.
    pub status_404: AtomicU64,
    /// Admission-control rejections (queue full).
    pub status_429: AtomicU64,
    /// Server errors (500/503): deadline expired, failed estimations.
    pub status_503: AtomicU64,
    /// Estimate served straight from the cache.
    pub cache_hits: AtomicU64,
    /// Estimate computed cold.
    pub cache_misses: AtomicU64,
    /// Estimate shared via single-flight wait.
    pub cache_waits: AtomicU64,
    /// Jobs bounced because the worker queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Jobs bounced because shutdown had begun. Nothing bounces a job at
    /// shutdown (a loop stops routing at the latch and its admitted jobs
    /// run to completion), so this reads 0; the key stays for `/metrics`
    /// readers.
    pub rejected_shutdown: AtomicU64,
    /// Requests whose per-request deadline expired before service.
    pub deadline_expired: AtomicU64,
    /// `POST /shutdown` requests honoured.
    pub shutdown_requests: AtomicU64,
    /// `/stream` responses started.
    pub streams: AtomicU64,
    /// Streamed estimations that converged before their trial budget.
    pub stream_early_stops: AtomicU64,
    /// Requests served on a reused (keep-alive) connection — every fully
    /// parsed request after a connection's first.
    pub keepalive_reuses: AtomicU64,
    /// Requests parsed while an earlier response on the same connection
    /// was still queued or being written (HTTP pipelining).
    pub pipelined_requests: AtomicU64,
    /// Connections closed by the event loop's idle/read timeout sweep.
    pub conn_timeouts: AtomicU64,
}

impl ServerStats {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the status code of an emitted response.
    pub fn count_status(&self, status: u16) {
        let counter = match status {
            200 => &self.status_200,
            400..=403 | 405..=428 | 430..=499 => &self.status_400,
            404 => &self.status_404,
            429 => &self.status_429,
            _ => &self.status_503,
        };
        Self::bump(counter);
    }

    /// Renders every counter as a (sorted-key) JSON object.
    pub fn to_json(&self) -> Json {
        let read = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            ("accepted".into(), read(&self.accepted)),
            ("cache_hits".into(), read(&self.cache_hits)),
            ("cache_misses".into(), read(&self.cache_misses)),
            ("cache_waits".into(), read(&self.cache_waits)),
            ("conn_timeouts".into(), read(&self.conn_timeouts)),
            ("deadline_expired".into(), read(&self.deadline_expired)),
            ("keepalive_reuses".into(), read(&self.keepalive_reuses)),
            ("pipelined_requests".into(), read(&self.pipelined_requests)),
            (
                "rejected_queue_full".into(),
                read(&self.rejected_queue_full),
            ),
            ("rejected_shutdown".into(), read(&self.rejected_shutdown)),
            ("requests".into(), read(&self.requests)),
            ("shutdown_requests".into(), read(&self.shutdown_requests)),
            ("status_200".into(), read(&self.status_200)),
            ("status_400".into(), read(&self.status_400)),
            ("status_404".into(), read(&self.status_404)),
            ("status_429".into(), read(&self.status_429)),
            ("status_503".into(), read(&self.status_503)),
            ("stream_early_stops".into(), read(&self.stream_early_stops)),
            ("streams".into(), read(&self.streams)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_counting_routes_to_the_right_counter() {
        let s = ServerStats::default();
        s.count_status(200);
        s.count_status(200);
        s.count_status(400);
        s.count_status(405);
        s.count_status(404);
        s.count_status(429);
        s.count_status(503);
        assert_eq!(s.status_200.load(Ordering::Relaxed), 2);
        assert_eq!(s.status_400.load(Ordering::Relaxed), 2);
        assert_eq!(s.status_404.load(Ordering::Relaxed), 1);
        assert_eq!(s.status_429.load(Ordering::Relaxed), 1);
        assert_eq!(s.status_503.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn json_export_has_sorted_keys() {
        let s = ServerStats::default();
        ServerStats::bump(&s.cache_hits);
        let rendered = s.to_json().render();
        let doc = fair_simlab::json::parse(&rendered).expect("self-rendered json parses");
        match doc {
            Json::Obj(fields) => {
                assert!(fields.windows(2).all(|w| w[0].0 < w[1].0), "keys sorted");
                assert_eq!(fields.len(), 19);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
