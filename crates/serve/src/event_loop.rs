//! One event loop of the sharded serving core.
//!
//! Each [`EventLoop`] owns a full single-threaded serving stack: its own
//! `fair_aio::Poller`, listener (a `SO_REUSEPORT` group member, or the
//! only listener of a single-loop server), connection slab, wake eventfd,
//! and completion queue. Nothing here is locked on the hot path — the
//! only state shared *between* loops is the result cache (sharded,
//! single-flight deduped), the tile store, the bounded [`WorkerPool`],
//! the `/metrics` counters (relaxed atomics), and the shutdown latch, all
//! reached through [`Service`].
//!
//! The warm path never leaves the loop: parse a buffered head, probe the
//! result cache, serialize the response head, and gather head + shared
//! `Arc` body into one vectored write. Cold `/estimate`s and `/stream`
//! responses run on the shared pool (429 when the queue refuses,
//! per-request deadline 503s). There is one I/O model: a worker never
//! touches a socket. A finished cold job pushes its serialized response
//! onto *its* loop's completion queue and rings *that* loop's waker; a
//! `/stream` job writes into a [`StreamSink`] that pushes each flushed
//! chunk the same way and an end marker when the job finishes. Either
//! way the bytes splice into the connection's pipeline slot on the thread
//! that owns it, so pipelined responses never reorder, sharded or not,
//! and write backpressure and the idle sweep cover streams like any
//! other reply.
//!
//! Timeouts are one sweep over the connection slab every [`SWEEP_TICK`]:
//! a connection idle past its limit (read or keep-alive) is closed, at
//! most one tick late. A connection with a job in flight is never reaped.
//!
//! Shutdown: at the latch a loop stops accepting and reading, keeps
//! splicing completions until none of its connections waits on a job
//! (every job belongs to the loop whose connection submitted it), then
//! flushes its connections with bounded blocking writes and closes them.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fair_aio::{Event, Interest, Poller, Token, Waker};
use fair_simlab::WorkerPool;

use crate::http::{self, Body, ParseError, Request, Response};
use crate::server::ServerConfig;
use crate::service::{Service, Verdict};
use crate::stats::ServerStats;

/// How often the loop wakes to poll the shutdown latch and the sweep.
const LOOP_TICK: Duration = Duration::from_millis(10);
/// Idle-sweep period — coarse on purpose; timeouts are seconds.
const SWEEP_TICK: Duration = Duration::from_millis(100);
/// Listener and waker get the two reserved tokens below this base.
const CONN_BASE: u64 = 2;
const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Per-call read chunk; also bounds one event's read before yielding.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per readiness event before yielding to other connections.
const READ_BURSTS: usize = 4;
/// Response buffers gathered into one vectored write.
const WRITEV_BATCH: usize = 32;
/// How long the drain phase will block flushing one connection's tail.
const DRAIN_WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a connection may sit mid-request-head (or before its first
/// request) before the idle sweep closes it.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Most parsed requests a connection may have awaiting serialization.
/// At the cap the loop serializes the ready prefix before parsing more,
/// and stops reading while the prefix is blocked behind pool work
/// (pipelining backpressure).
const MAX_PIPELINE: usize = 64;

/// Slot generations travel in a token's high 32 bits, so only their low 32
/// bits survive the trip through the poller and the completion queue. Every
/// pack and compare site goes through [`gen_tag`]: without the mask, a slab
/// generation ≥ 2^32 would alias an earlier token at pack time while
/// comparing unequal at check time — a stale completion could then land in
/// a live connection, and live events would be dropped as stale.
const GEN_MASK: u64 = 0xffff_ffff;

/// The 32-bit tag of a (monotonically growing, unbounded) slot generation.
fn gen_tag(gen: u64) -> u64 {
    gen & GEN_MASK
}

fn token_for(idx: usize, gen: u64) -> Token {
    Token((gen_tag(gen) << 32) | (idx as u64 + CONN_BASE))
}

fn split_token(token: Token) -> Option<(usize, u64)> {
    let low = token.0 & 0xffff_ffff;
    if low < CONN_BASE {
        return None;
    }
    Some(((low - CONN_BASE) as usize, token.0 >> 32))
}

/// One response in flight on the wire: serialized head plus the body
/// (owned or cache-shared), each with a write cursor.
struct OutBuf {
    head: Vec<u8>,
    head_pos: usize,
    body: Body,
    body_pos: usize,
}

impl OutBuf {
    fn done(&self) -> bool {
        self.head_pos >= self.head.len() && self.body_pos >= self.body.len()
    }
}

/// One request's slot in a connection's response pipeline. Slots serialize
/// in FIFO order; a `Busy` slot (a cold estimate or a stream on the pool)
/// blocks later responses from flushing until its job is `done`, which is
/// exactly HTTP pipelining's ordering contract. At the front, a `Busy`
/// slot flushes the bytes its job has sent so far.
enum Pending {
    Ready(Response, bool),
    Busy {
        job: u64,
        bytes: Vec<u8>,
        done: bool,
    },
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (bounded: heads are capped, and parsing
    /// drains every complete head unless a pool job blocks the pipeline
    /// at its cap).
    buf: Vec<u8>,
    pending: VecDeque<Pending>,
    out: VecDeque<OutBuf>,
    /// Requests successfully parsed on this connection.
    parsed: u64,
    /// Peer sent FIN, a close-disposition request, or a parse error:
    /// stop reading and parsing; flush what is queued, then close.
    no_more_reads: bool,
    close_after_drain: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
    last_activity: Instant,
}

impl Conn {
    /// Serializes the contiguous ready prefix of the pipeline into the
    /// write queue (head bytes built here; bodies ride as-is, shared
    /// cache bodies without a copy). A front `Busy` slot hands over the
    /// bytes it has so far and blocks later slots until its job is done.
    fn flush_ready(&mut self) {
        loop {
            match self.pending.front_mut() {
                Some(Pending::Ready(..)) => {
                    let Some(Pending::Ready(resp, keep_alive)) = self.pending.pop_front() else {
                        break;
                    };
                    self.out.push_back(OutBuf {
                        head: resp.head_bytes(keep_alive),
                        head_pos: 0,
                        body: resp.body,
                        body_pos: 0,
                    });
                }
                Some(Pending::Busy { bytes, done, .. }) => {
                    let done = *done;
                    if !bytes.is_empty() {
                        self.out.push_back(OutBuf {
                            head: std::mem::take(bytes),
                            head_pos: 0,
                            body: Body::Bytes(Vec::new()),
                            body_pos: 0,
                        });
                    }
                    if !done {
                        break;
                    }
                    self.pending.pop_front();
                }
                None => break,
            }
        }
    }
}

/// Wire bytes a job sent to its pipeline slot; `done` marks its last.
struct Completion {
    token: Token,
    job: u64,
    bytes: Vec<u8>,
    done: bool,
}

/// A worker's way back to the loop: the owning loop's completion queue,
/// its waker, and the `(token, job)` address of the pipeline slot.
struct Courier {
    token: Token,
    job: u64,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
}

impl Courier {
    fn send(&self, bytes: Vec<u8>, done: bool) {
        {
            let mut queue = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            queue.push(Completion {
                token: self.token,
                job: self.job,
                bytes,
                done,
            });
        }
        // Guard dropped before ringing the loop.
        self.waker.wake();
    }
}

/// The `Write` end a `/stream` job runs on: each `flush()` ships the
/// buffered bytes to the loop as one completion, and dropping the sink
/// (the job finished) ships the rest with the end marker.
struct StreamSink {
    courier: Courier,
    buf: Vec<u8>,
}

impl Write for StreamSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.courier.send(std::mem::take(&mut self.buf), false);
        }
        Ok(())
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        self.courier.send(std::mem::take(&mut self.buf), true);
    }
}

/// Everything a loop shares with (or receives from) the coordinator.
pub(crate) struct LoopSpec {
    /// This loop's listener: a reuseport group member, or (single-loop)
    /// the only listener.
    pub listener: TcpListener,
    pub service: Arc<Service>,
    pub config: ServerConfig,
    pub shutdown: Arc<AtomicBool>,
    /// The worker pool, shared across loops.
    pub pool: Arc<WorkerPool>,
}

pub(crate) struct EventLoop {
    poller: Poller,
    waker: Waker,
    /// When the idle sweep next walks the connection slab.
    next_sweep: Instant,
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    service: Arc<Service>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    completions: Arc<Mutex<Vec<Completion>>>,
    events: Vec<Event>,
    next_job: u64,
}

impl EventLoop {
    pub(crate) fn new(spec: LoopSpec) -> std::io::Result<EventLoop> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(spec.listener.as_fd(), LISTENER, Interest::READ)?;
        poller.register(waker.as_fd(), WAKER, Interest::READ.edge_triggered())?;
        spec.service.loops.fetch_add(1, Ordering::Relaxed);
        Ok(EventLoop {
            poller,
            waker,
            next_sweep: Instant::now() + SWEEP_TICK,
            listener: spec.listener,
            pool: spec.pool,
            service: spec.service,
            config: spec.config,
            shutdown: spec.shutdown,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            completions: Arc::new(Mutex::new(Vec::new())),
            events: Vec::new(),
            next_job: 0,
        })
    }

    /// Serves until the shutdown latch, then drains. Consumes the loop, so
    /// its handle on the pool is gone once `run` returns.
    pub(crate) fn run(mut self) -> std::io::Result<()> {
        let mut result = Ok(());
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(Some(LOOP_TICK), &mut events) {
                self.events = events;
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                // A dead poller is fatal for the whole group: latch
                // shutdown so peer loops drain instead of leaving the
                // server half up.
                self.shutdown.store(true, Ordering::SeqCst);
                result = Err(e);
                break;
            }
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                match ev.token {
                    LISTENER => self.accept_burst(),
                    WAKER => {
                        self.waker.drain();
                        self.apply_completions();
                    }
                    token => {
                        if let Some((idx, gen)) = split_token(token) {
                            self.conn_event(idx, gen, ev);
                        }
                    }
                }
            }
            self.events = events;
            // Completions can also land while the loop is mid-iteration;
            // a cheap lock probe per tick keeps cold latency at one tick
            // even if a wake edge coalesced into an already-drained batch.
            self.apply_completions();
            self.sweep_idle();
        }
        self.drain();
        result
    }

    // ---- accept -------------------------------------------------------

    fn accept_burst(&mut self) {
        // Bounded burst so one accept storm cannot starve live conns.
        for _ in 0..256 {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.install_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream) {
        ServerStats::bump(&self.service.stats.accepted);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Claim the slot only once registration succeeded, so a failed
        // register leaks neither a recycled index nor a fresh one.
        let idx = self.free.last().copied().unwrap_or(self.conns.len());
        let gen = self.gens.get(idx).copied().unwrap_or(0);
        let token = token_for(idx, gen);
        if self
            .poller
            .register(stream.as_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        if self.free.pop().is_none() {
            self.conns.push(None);
            self.gens.push(0);
        }
        let conn = Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            out: VecDeque::new(),
            parsed: 0,
            no_more_reads: false,
            close_after_drain: false,
            registered: Interest::READ,
            last_activity: Instant::now(),
        };
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = Some(conn);
        }
    }

    // ---- per-connection event handling --------------------------------

    fn conn_event(&mut self, idx: usize, gen: u64, ev: Event) {
        if self.gens.get(idx).copied().map(gen_tag) != Some(gen) {
            return; // stale event for a recycled slot
        }
        if ev.writable {
            self.conn_write(idx);
        }
        if ev.readable || ev.closed {
            self.conn_read(idx);
        }
        self.conn_pump(idx);
    }

    /// Reads whatever the socket has (bounded per event), appending to the
    /// connection's parse buffer.
    fn conn_read(&mut self, idx: usize) {
        let max_buffered = http::MAX_HEAD_BYTES.saturating_mul(2);
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if conn.no_more_reads {
                return;
            }
            let mut chunk = [0u8; READ_CHUNK];
            for _ in 0..READ_BURSTS {
                if conn.pending.len() >= MAX_PIPELINE || conn.buf.len() >= max_buffered {
                    break; // backpressure: stop pulling bytes
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.no_more_reads = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf
                            .extend_from_slice(chunk.get(..n).unwrap_or_default());
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(idx);
        }
    }

    /// Parses every complete buffered head (serializing the ready prefix
    /// whenever the pipeline cap is reached), routes each, flushes ready
    /// responses to the write queue, writes, and re-syncs poller interest.
    /// The workhorse — called after reads, after completions, and after
    /// anything else that changes conn state.
    fn conn_pump(&mut self, idx: usize) {
        let arrival = Instant::now();
        loop {
            // Stage 1: pull one parsed request (or a parse failure) out of
            // the buffer under a short borrow.
            let parsed = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                if conn.pending.len() >= MAX_PIPELINE {
                    // Free slots before parsing on: heads already in `buf`
                    // get no readiness event of their own, so stopping
                    // here would strand them until the read timeout.
                    conn.flush_ready();
                }
                if conn.close_after_drain || conn.pending.len() >= MAX_PIPELINE {
                    None
                } else {
                    match http::split_head(&conn.buf) {
                        Some((head_len, consumed)) => {
                            let head: Vec<u8> =
                                conn.buf.get(..head_len).unwrap_or_default().to_vec();
                            conn.buf.drain(..consumed.min(conn.buf.len()));
                            conn.last_activity = arrival;
                            let result = http::parse_request(&head);
                            if result.is_ok() {
                                if conn.parsed >= 1 {
                                    ServerStats::bump(&self.service.stats.keepalive_reuses);
                                }
                                if !conn.pending.is_empty() || !conn.out.is_empty() {
                                    ServerStats::bump(&self.service.stats.pipelined_requests);
                                }
                                conn.parsed += 1;
                            }
                            Some(result)
                        }
                        None if conn.buf.len() >= http::MAX_HEAD_BYTES => {
                            conn.buf.clear();
                            Some(Err(ParseError::HeadTooLarge))
                        }
                        None => None,
                    }
                }
            };
            let Some(parsed) = parsed else {
                break;
            };
            // Stage 2: route without holding the connection borrow.
            match parsed {
                Ok(req) => {
                    // A stream's response is `Connection: close`.
                    let keep_alive =
                        req.wants_keep_alive() && !req.has_body() && req.path != "/stream";
                    let gen = self.gens.get(idx).copied().unwrap_or(0);
                    let slot = self.route(idx, gen, req, arrival, keep_alive);
                    let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    conn.pending.push_back(slot);
                    if !keep_alive {
                        conn.close_after_drain = true;
                        conn.no_more_reads = true;
                    }
                }
                Err(err) => {
                    let status = match err {
                        ParseError::HeadTooLarge => 431,
                        _ => 400,
                    };
                    self.service.stats.count_status(status);
                    let resp = Response::error(status, &err.to_string());
                    let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    conn.pending.push_back(Pending::Ready(resp, false));
                    conn.close_after_drain = true;
                    conn.no_more_reads = true;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.flush_ready();
        }
        self.conn_write(idx);
        self.conn_maintain(idx);
    }

    /// Routes one request to its pipeline slot: deadline guard, then
    /// `/stream` or the warm-or-cold service verdict, with cold work and
    /// streams submitted to the pool (inline 429 on refusal).
    fn route(
        &mut self,
        idx: usize,
        gen: u64,
        req: Request,
        arrival: Instant,
        keep_alive: bool,
    ) -> Pending {
        let deadline = self.config.deadline;
        if arrival.elapsed() > deadline {
            return Pending::Ready(deadline_expired(&self.service.stats), keep_alive);
        }
        // Warm verdicts return here, before any job bookkeeping.
        let ticket = if req.path == "/stream" {
            None
        } else {
            match self.service.begin(&req) {
                Verdict::Reply(resp) => return Pending::Ready(resp, keep_alive),
                Verdict::Offload(ticket) => Some(ticket),
            }
        };
        let job = self.next_job;
        self.next_job += 1;
        let courier = Courier {
            token: token_for(idx, gen),
            job,
            completions: Arc::clone(&self.completions),
            waker: self.waker.clone(),
        };
        let service = Arc::clone(&self.service);
        let submitted = match ticket {
            None => self.pool.try_submit(move || {
                let mut sink = StreamSink {
                    courier,
                    buf: Vec::new(),
                };
                crate::streaming::handle(&service, &mut sink, &req);
            }),
            Some(ticket) => self.pool.try_submit(move || {
                let resp = if arrival.elapsed() > deadline {
                    // The job sat in the queue past its deadline:
                    // answer a bounded 503 instead of serving late.
                    deadline_expired(&service.stats)
                } else {
                    service.estimate_finish(ticket)
                };
                // A cold reply is a one-chunk stream.
                let mut bytes = resp.head_bytes(keep_alive);
                bytes.extend_from_slice(resp.body.as_slice());
                courier.send(bytes, true);
            }),
        };
        if submitted.is_ok() {
            return Pending::Busy {
                job,
                bytes: Vec::new(),
                done: false,
            };
        }
        ServerStats::bump(&self.service.stats.rejected_queue_full);
        let refused =
            Response::error(429, "server overloaded, retry later").with_header("Retry-After", "1");
        self.service.stats.count_status(refused.status);
        Pending::Ready(refused, keep_alive)
    }

    /// Writes as much queued output as the socket accepts, gathering up to
    /// [`WRITEV_BATCH`] responses per vectored write.
    fn conn_write(&mut self, idx: usize) {
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            while !conn.out.is_empty() {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * WRITEV_BATCH);
                for ob in conn.out.iter().take(WRITEV_BATCH) {
                    let head_rest = ob.head.get(ob.head_pos..).unwrap_or_default();
                    if !head_rest.is_empty() {
                        slices.push(IoSlice::new(head_rest));
                    }
                    let body_rest = ob.body.as_slice().get(ob.body_pos..).unwrap_or_default();
                    if !body_rest.is_empty() {
                        slices.push(IoSlice::new(body_rest));
                    }
                }
                if slices.is_empty() {
                    conn.out.clear();
                    break;
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => break,
                    Ok(n) => {
                        advance_out(&mut conn.out, n);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(idx);
        }
    }

    /// Post-pump maintenance: close fully-drained connections and re-sync
    /// poller interest (read backpressure, write interest only while
    /// output is queued).
    fn conn_maintain(&mut self, idx: usize) {
        let (close, desired) = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            let close = conn.pending.is_empty()
                && conn.out.is_empty()
                && (conn.close_after_drain || (conn.no_more_reads && conn.buf.is_empty()));
            let desired = Interest {
                readable: !conn.no_more_reads
                    && conn.pending.len() < MAX_PIPELINE
                    && conn.buf.len() < http::MAX_HEAD_BYTES.saturating_mul(2),
                writable: !conn.out.is_empty(),
                edge: false,
            };
            (close, desired)
        };
        if close {
            self.close_conn(idx);
            return;
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if desired != conn.registered {
                let token = token_for(idx, self.gens.get(idx).copied().unwrap_or(0));
                if self
                    .poller
                    .reregister(conn.stream.as_fd(), token, desired)
                    .is_ok()
                {
                    conn.registered = desired;
                }
            }
        }
    }

    // ---- completions and timeouts ---------------------------------------

    /// Splices the bytes workers sent (cold replies, stream chunks) into
    /// their connections' pipeline slots and pumps those connections.
    fn apply_completions(&mut self) {
        let done = {
            let mut queue = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *queue)
        };
        if done.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(done.len());
        for completion in done {
            let Some((idx, gen)) = split_token(completion.token) else {
                continue;
            };
            if self.gens.get(idx).copied().map(gen_tag) != Some(gen) {
                continue; // connection died while the job ran
            }
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            let slot = conn
                .pending
                .iter_mut()
                .find(|slot| matches!(slot, Pending::Busy { job, .. } if *job == completion.job));
            let Some(Pending::Busy { bytes, done, .. }) = slot else {
                continue;
            };
            bytes.extend_from_slice(&completion.bytes);
            *done = completion.done;
            conn.last_activity = Instant::now();
            if !touched.contains(&idx) {
                touched.push(idx);
            }
        }
        for idx in touched {
            self.conn_pump(idx);
        }
    }

    /// Once per [`SWEEP_TICK`], closes every connection idle past its
    /// limit: unread output or an idle keep-alive gets the keep-alive
    /// timeout, a connection mid-head or before its first request gets
    /// [`READ_TIMEOUT`]. A connection with a job in flight is left alone;
    /// the job's deadline bounds it.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + SWEEP_TICK;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) else {
                continue;
            };
            if !conn.pending.is_empty() {
                continue;
            }
            let limit = if conn.out.is_empty() && (conn.parsed == 0 || !conn.buf.is_empty()) {
                READ_TIMEOUT
            } else {
                self.config.keepalive_timeout
            };
            if now.saturating_duration_since(conn.last_activity) >= limit {
                ServerStats::bump(&self.service.stats.conn_timeouts);
                self.close_conn(idx);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_fd());
        if let Some(g) = self.gens.get_mut(idx) {
            *g += 1;
        }
        self.free.push(idx);
        // `conn.stream` drops here, closing the socket.
    }

    // ---- shutdown -----------------------------------------------------

    /// Graceful drain. The latch is set, so this loop stops accepting and
    /// reading; it keeps splicing completions until none of its
    /// connections waits on a job, then flushes every connection's queued
    /// output with bounded blocking writes and closes it. Orphaned jobs
    /// (their connection already closed) are not waited for here: the
    /// pool runs them when the server drops it.
    fn drain(&mut self) {
        let _ = self.poller.deregister(self.listener.as_fd());
        for conn in self.conns.iter().flatten() {
            let _ = self.poller.deregister(conn.stream.as_fd());
        }
        let mut events = std::mem::take(&mut self.events);
        while self.awaits_job() {
            // Only the waker is registered now; a timeout re-checks too.
            if self.poller.wait(Some(LOOP_TICK), &mut events).is_err() {
                std::thread::sleep(LOOP_TICK);
            }
            self.waker.drain();
            self.apply_completions();
        }
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            conn.flush_ready();
            if !conn.out.is_empty() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(DRAIN_WRITE_TIMEOUT));
                for ob in conn.out.iter() {
                    let head_rest = ob.head.get(ob.head_pos..).unwrap_or_default();
                    if conn.stream.write_all(head_rest).is_err() {
                        break;
                    }
                    let body_rest = ob.body.as_slice().get(ob.body_pos..).unwrap_or_default();
                    if conn.stream.write_all(body_rest).is_err() {
                        break;
                    }
                }
                let _ = conn.stream.flush();
            }
            self.close_conn(idx);
        }
    }

    /// Whether any connection still holds a pipeline slot whose job has
    /// not sent its last bytes.
    fn awaits_job(&self) -> bool {
        self.conns.iter().flatten().any(|conn| {
            conn.pending
                .iter()
                .any(|slot| matches!(slot, Pending::Busy { done: false, .. }))
        })
    }
}

/// The bounded 503 for a request whose deadline passed before service.
fn deadline_expired(stats: &ServerStats) -> Response {
    ServerStats::bump(&stats.deadline_expired);
    let resp =
        Response::error(503, "deadline expired before service").with_header("Retry-After", "1");
    stats.count_status(resp.status);
    resp
}

/// Consumes `n` written bytes from the front of the write queue.
fn advance_out(out: &mut VecDeque<OutBuf>, mut n: usize) {
    while n > 0 {
        let Some(front) = out.front_mut() else {
            return;
        };
        let head_rest = front.head.len().saturating_sub(front.head_pos);
        let take = head_rest.min(n);
        front.head_pos += take;
        n -= take;
        if n > 0 {
            let body_rest = front.body.len().saturating_sub(front.body_pos);
            let take = body_rest.min(n);
            front.body_pos += take;
            n -= take;
        }
        if front.done() {
            out.pop_front();
        } else {
            return;
        }
    }
    while matches!(out.front(), Some(front) if front.done()) {
        out.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_index_and_generation() {
        for (idx, gen) in [(0usize, 0u64), (1, 1), (4096, 77), (0xfffffff, 0xffff_ffff)] {
            let token = token_for(idx, gen);
            assert_eq!(split_token(token), Some((idx, gen)));
        }
        assert_eq!(split_token(LISTENER), None);
        assert_eq!(split_token(WAKER), None);
    }

    #[test]
    fn token_generation_wraparound_stays_masked_and_consistent() {
        let wrap = 1u64 << 32;
        // Past 2^32 the packed generation is the 32-bit tag — round trips
        // must agree with `gen_tag`, not silently alias the slot index.
        for (idx, gen) in [(3usize, wrap), (3, wrap + 7), (0, u64::MAX)] {
            let token = token_for(idx, gen);
            assert_eq!(split_token(token), Some((idx, gen_tag(gen))));
            let (_, unpacked) = split_token(token).expect("conn token");
            assert!(unpacked <= GEN_MASK, "unpacked gen fits 32 bits");
        }
        // A slab generation past 2^32 still matches its own token…
        let slab_gen = wrap + 1;
        let live = token_for(5, slab_gen);
        assert_eq!(
            split_token(live).map(|(_, g)| g),
            Some(gen_tag(slab_gen)),
            "live token matches the masked slab generation"
        );
        // …and still rejects its predecessor's (the stale-completion case).
        let stale = token_for(5, slab_gen - 1);
        assert_ne!(
            split_token(stale).map(|(_, g)| g),
            Some(gen_tag(slab_gen)),
            "stale token from the previous generation must not match"
        );
    }

    #[test]
    fn advance_out_walks_heads_bodies_and_buffer_boundaries() {
        let buf = |head: &[u8], body: &[u8]| OutBuf {
            head: head.to_vec(),
            head_pos: 0,
            body: Body::Bytes(body.to_vec()),
            body_pos: 0,
        };
        let mut out: VecDeque<OutBuf> = [buf(b"HEAD1", b"body1"), buf(b"HEAD2", b"b2")]
            .into_iter()
            .collect();
        advance_out(&mut out, 3); // part of head 1
        assert_eq!(out.front().map(|f| f.head_pos), Some(3));
        advance_out(&mut out, 4); // rest of head 1 + 2 body bytes
        assert_eq!(out.front().map(|f| f.body_pos), Some(2));
        advance_out(&mut out, 3 + 5); // finish 1, head 2 spill
        assert_eq!(out.len(), 1);
        assert_eq!(out.front().map(|f| f.head_pos), Some(5));
        advance_out(&mut out, 2); // finish everything
        assert!(out.is_empty());
        advance_out(&mut out, 10); // over-advance on empty: no panic
    }
}
