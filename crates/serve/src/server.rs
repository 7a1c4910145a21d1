//! The serving coordinator: listener setup, loop sharding, shutdown.
//!
//! The actual per-connection machinery lives in [`crate::event_loop`]; this
//! module owns what is *shared* across the `loops` event loops it starts:
//! the listener group, the [`WorkerPool`] executing cold estimations, and
//! the shutdown latch. Loop 0 always runs inline on the caller's thread;
//! with `loops == 1` ([`ServerConfig`]'s default, and the only sensible
//! setting on a one-core host) it is the whole server. The `fair-serve` binary
//! defaults `--loops` to the host's available parallelism instead.
//!
//! Accept sharding is `SO_REUSEPORT` only: each loop binds its own
//! listener on the same address and the kernel hashes flows across the
//! group — no locks, no hand-off, no thundering herd. The loop count alone
//! decides the mode (one plain listener, or a reuseport group), and a
//! reuseport bind failure is returned to the caller; `fair-aio` runs on
//! epoll, so every host that can run the loops has reuseport.
//!
//! Everything request-visible survives sharding unchanged: graceful drain
//! (latch → each loop awaits its own jobs and flushes → after every loop
//! joined, dropping the pool runs any orphaned job), inline 429/503
//! admission, keep-alive/pipelining in-order replies, and the served-bytes
//! byte-identity contract — the result cache, single-flight dedup, and
//! tile store are process-wide, so the same `(exp, trials, seed)` point
//! renders the same bytes no matter which loop answers it.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use fair_simlab::WorkerPool;

use crate::event_loop::{EventLoop, LoopSpec};
use crate::service::{Backend, Service, ServiceConfig};

/// Tunables for the event loops and worker pool.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Event loops to run (accept-sharded). Clamped to at least 1; the
    /// default is 1, a single-threaded server.
    pub loops: usize,
    /// Worker threads executing cold estimations and streams (one pool,
    /// shared across all loops).
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it cold requests get `429`.
    pub queue_cap: usize,
    /// Per-request deadline measured from arrival; a job that waited in
    /// the queue past it is answered `503` instead of being served late.
    pub deadline: Duration,
    /// How long an idle keep-alive connection (no request in flight, no
    /// unread bytes) is retained before the idle sweep closes it.
    pub keepalive_timeout: Duration,
    /// Where to flush the final metrics snapshot on shutdown (optional).
    pub metrics_path: Option<PathBuf>,
    /// Directory for the persistent tile store. When set, `bind` installs
    /// a process-global `fair_tiles::Store` there, warms it from whatever
    /// the directory already holds, and the server flushes it after cold
    /// computes and on shutdown — so estimates survive restarts. `None`
    /// (the default) leaves whatever store is already installed untouched.
    pub tiles_dir: Option<PathBuf>,
    /// Service-layer tunables (default trials, trial cap).
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            loops: 1,
            workers: 4,
            queue_cap: 64,
            deadline: Duration::from_secs(30),
            keepalive_timeout: Duration::from_secs(10),
            metrics_path: None,
            tiles_dir: None,
            service: ServiceConfig::default(),
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listeners: Vec<TcpListener>,
    service: Arc<Service>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listener group (one listener per loop) and builds the
    /// service. The sockets are nonblocking — the loops own them from
    /// here on.
    pub fn bind(config: ServerConfig, backend: Arc<dyn Backend>) -> std::io::Result<Server> {
        if let Some(dir) = &config.tiles_dir {
            // Install-and-warm before the first request: every tile the
            // previous process flushed serves this one from disk.
            let store = fair_tiles::Store::persistent(dir);
            store.load();
            fair_tiles::cache::install(Arc::new(store));
        }
        let loops = config.loops.max(1);
        let listeners = bind_listeners(&config.addr, loops)?;
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        let local_addr = listeners
            .first()
            .ok_or_else(|| std::io::Error::other("no listener bound"))?
            .local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let service = Arc::new(Service::new(backend, config.service, Arc::clone(&shutdown)));
        Ok(Server {
            listeners,
            service,
            config,
            shutdown,
            local_addr,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service (stats access for embedding tests/tools).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// A latch that stops the server when stored `true` — the programmatic
    /// equivalent of `POST /shutdown`.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Number of event loops this server will run.
    pub fn loops(&self) -> usize {
        self.listeners.len()
    }

    /// Serves until shutdown is requested, then drains and returns. Loop 0
    /// runs on the calling thread; loops 1..N on named threads. The final
    /// metrics snapshot and tile flush happen once, after every loop has
    /// drained.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listeners,
            service,
            config,
            shutdown,
            ..
        } = self;
        let pool = Arc::new(WorkerPool::new(config.workers, config.queue_cap));
        // Build every loop before starting any: construction registers
        // descriptors with fresh pollers, so errors surface here instead
        // of killing a half-started group.
        let mut loops = Vec::with_capacity(listeners.len());
        for listener in listeners {
            loops.push(EventLoop::new(LoopSpec {
                listener,
                service: Arc::clone(&service),
                config: config.clone(),
                shutdown: Arc::clone(&shutdown),
                pool: Arc::clone(&pool),
            })?);
        }
        let mut loops = loops.into_iter();
        let Some(first) = loops.next() else {
            return Ok(());
        };
        let result = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, el) in loops.enumerate() {
                let spawned = std::thread::Builder::new()
                    .name(format!("fair-loop-{}", i + 1))
                    .spawn_scoped(scope, move || el.run());
                match spawned {
                    Ok(handle) => handles.push(handle),
                    // Stop the group: a half-capacity server was not what
                    // was asked for.
                    Err(_) => shutdown.store(true, std::sync::atomic::Ordering::SeqCst),
                }
            }
            let mut result = first.run();
            for handle in handles {
                match handle.join() {
                    Ok(r) => result = result.and(r),
                    Err(_) => {
                        result = result.and(Err(std::io::Error::other("event loop panicked")))
                    }
                }
            }
            result
        });
        // Every loop has drained and dropped its pool handle. Dropping the
        // last one runs any job whose connection closed early, then joins
        // the workers, so the snapshot below counts every job.
        drop(pool);
        if let Some(path) = &config.metrics_path {
            let body = service.metrics_document().render_pretty() + "\n";
            let _ = fair_tiles::atomic_write(path, body.as_bytes());
        }
        fair_tiles::cache::flush();
        result
    }
}

/// Builds one listener per loop: a plain std listener for a single loop,
/// a reuseport group (kernel accept sharding) for more.
fn bind_listeners(addr: &str, loops: usize) -> std::io::Result<Vec<TcpListener>> {
    if loops <= 1 {
        return Ok(vec![TcpListener::bind(addr)?]);
    }
    bind_reuseport_group(addr, loops)
}

/// Binds `loops` reuseport listeners on `addr`. The first bind resolves an
/// ephemeral port; the rest join the group on the resolved address.
fn bind_reuseport_group(addr: &str, loops: usize) -> std::io::Result<Vec<TcpListener>> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("address {addr:?} did not resolve")))?;
    let first = fair_aio::net::reuseport_listener(sock_addr)?;
    let resolved = first.local_addr()?;
    let mut listeners = Vec::with_capacity(loops);
    listeners.push(first);
    for _ in 1..loops {
        listeners.push(fair_aio::net::reuseport_listener(resolved)?);
    }
    Ok(listeners)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_listeners_shards_by_loop_count() {
        let single = bind_listeners("127.0.0.1:0", 1).expect("bind 1");
        assert_eq!(single.len(), 1);

        let group = bind_listeners("127.0.0.1:0", 3).expect("bind 3");
        assert_eq!(group.len(), 3);
        let port = group
            .first()
            .map(|l| l.local_addr().expect("addr").port())
            .expect("first listener");
        assert_ne!(port, 0);
        for listener in &group {
            assert_eq!(listener.local_addr().expect("addr").port(), port);
        }
    }
}
