//! The daemon proper: readiness-based reactor, bounded request queue,
//! worker pool, request dispatch, and graceful drain.
//!
//! Threading model — one reactor (the caller of [`Server::run`]) plus
//! `workers` dispatch threads plus transient compute threads owned by
//! the cache:
//!
//! * The **reactor** owns every socket. It runs a level-triggered
//!   [`crate::reactor::Poller`] (epoll on Linux) over nonblocking
//!   connections, each a small state machine
//!   ([`crate::conn::Connection`]): `Reading` (assembling a frame) →
//!   `Waiting` (request handed to the workers; read interest dropped,
//!   which is TCP backpressure against pipelining) → `Writing` (reply
//!   flushing) → `Reading`. Idle connections cost one fd and a few
//!   hundred bytes — 10k of them cost the reactor nothing per tick.
//! * Complete frames go through a **bounded** job queue to the worker
//!   pool. A full queue sheds *the request*: the reactor queues an
//!   `overload` reply and keeps the connection open — backpressure is
//!   explicit, and a shed costs the client a retry, not a reconnect.
//!   (Connection-count shedding still closes: past
//!   [`ServerConfig::max_connections`] the accept loop replies
//!   `overload` and drops.)
//! * **Workers** decode, dispatch, and encode off the reactor thread,
//!   then hand the reply frame back through a completion list and a
//!   [`crate::reactor::Waker`]. Reorder computations themselves run on
//!   cache-owned threads ([`crate::cache::ResultCache`]), so a
//!   per-request budget can expire without abandoning a worker and a
//!   pipeline panic never unwinds through connection state.
//! * **Drain** (a `shutdown` request or SIGTERM/SIGINT) stops accepting,
//!   lets queued and in-flight requests finish, writes their replies,
//!   flushes the persistent cache tier, joins every worker, and returns.

use crate::cache::{content_key, CachedOutcome, Fetch, ResultCache};
use crate::conn::{ConnState, Connection, ReadOutcome};
use crate::metrics::Metrics;
use crate::proto::{
    write_frame, ErrorCode, Json, Request, Response, WireConfig, WireError, MAX_FRAME,
};
use crate::reactor::{drain_wakes, fd_of, waker_pair, Event, Interest, Poller, Waker};
use crate::store::DiskStore;
use prolog_syntax::PredId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reactor tick: the latency bound on noticing shutdown, timers, and
/// (as a backstop) lost wake-ups.
const TICK: Duration = Duration::from_millis(25);
/// Worker queue poll: how long an idle worker waits before rechecking
/// the shutdown flag.
const QUEUE_POLL: Duration = Duration::from_millis(100);
/// A connection whose reply has been stuck mid-flush this long is dead
/// weight; close it.
const WRITE_STALL: Duration = Duration::from_secs(5);
/// Hard cap on the graceful-drain phase.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Set by the SIGTERM/SIGINT handler; observed every reactor tick.
/// Public so the binary can install the handler.
pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Daemon tuning. Defaults suit tests and small deployments; the binary
/// exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Dispatch worker threads.
    pub workers: usize,
    /// Parsed requests waiting for a worker before shedding starts.
    pub queue_capacity: usize,
    /// Result-cache capacity (entries, memory tier).
    pub cache_capacity: usize,
    /// Maximum (and default) per-request time budget.
    pub budget: Duration,
    /// Pipeline worker threads per reorder run (`WireConfig::jobs == 0`
    /// resolves to this). Kept at 1 by default: request-level
    /// parallelism beats intra-request parallelism under load.
    pub pipeline_jobs: usize,
    /// Close connections idle for this long between frames.
    pub idle_timeout: Duration,
    /// How long a started frame may dribble in before the connection is
    /// dropped as stalled (the slow-loris bound).
    pub frame_deadline: Duration,
    /// Frame payload ceiling.
    pub max_frame: usize,
    /// Connection-count ceiling; accepts past it are shed and closed.
    pub max_connections: usize,
    /// Directory for the persistent cache tier; `None` = memory only.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            budget: Duration::from_secs(10),
            pipeline_jobs: 1,
            idle_timeout: Duration::from_secs(30),
            frame_deadline: Duration::from_secs(10),
            max_frame: MAX_FRAME,
            max_connections: 12_000,
            store_dir: None,
        }
    }
}

/// One parsed request frame bound for the worker pool.
struct Job {
    conn: u64,
    payload: Vec<u8>,
    enqueued_at: Instant,
}

/// One encoded reply frame bound for the reactor.
struct Completion {
    conn: u64,
    payload: Vec<u8>,
    close_after: bool,
}

struct Shared {
    config: ServerConfig,
    cache: Arc<ResultCache>,
    metrics: Metrics,
    /// Active calibrations, keyed by the *uncalibrated* content key of
    /// `(program, config)`. A `calibrate` request installs the converged
    /// override set here; later `reorder` requests for the same pair
    /// replay it, under a cache key that folds in the override-set
    /// fingerprint (see [`WireConfig::cache_key_part_calibrated`]).
    /// The most recent calibration for a pair wins.
    calibrations: Mutex<HashMap<u128, Arc<StoredCalibration>>>,
    /// Parsed requests awaiting a worker, with their enqueue instant so
    /// workers can attribute queue wait separately from service time.
    pending: Mutex<VecDeque<Job>>,
    pending_cv: Condvar,
    /// Encoded replies awaiting the reactor.
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    shutdown: AtomicBool,
}

/// The daemon's record of one converged calibration: the override set
/// and pin list to replay, plus the loop summary echoed in `calibrated`
/// replies.
struct StoredCalibration {
    /// Deterministic digest of the override set and pins — the component
    /// the calibrated cache key incorporates, so calibrated and
    /// uncalibrated results (or results under different override sets)
    /// can never collide.
    fingerprint: String,
    measured: reorder::MeasuredCosts,
    pinned: Vec<PredId>,
    rounds: u64,
    converged: bool,
    /// Stale cache entries evicted when this calibration landed.
    invalidated: u64,
}

impl Shared {
    fn calibration_for(&self, base_key: u128) -> Option<Arc<StoredCalibration>> {
        self.calibrations
            .lock()
            .expect("calibration store lock poisoned")
            .get(&base_key)
            .cloned()
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.pending_cv.notify_all();
        self.waker.wake();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    /// Hands a finished reply to the reactor.
    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion list lock poisoned")
            .push(completion);
        self.waker.wake();
    }
}

/// Deterministic digest of a measured override set and pin list. Rows
/// are sorted, so two semantically equal calibrations always fingerprint
/// identically regardless of hash-map iteration order.
fn override_fingerprint(measured: &reorder::MeasuredCosts, pinned: &[PredId]) -> String {
    let mut rows: Vec<String> = measured
        .iter()
        .map(|((pred, mode), stats)| {
            format!("{pred}:{}=p{:.9}c{:.6}", mode.suffix(), stats.p, stats.cost)
        })
        .collect();
    rows.sort();
    let mut pins: Vec<String> = pinned.iter().map(|p| p.to_string()).collect();
    pins.sort();
    let blob = format!("{}|pins:{}", rows.join(";"), pins.join(","));
    format!("{:032x}", content_key(&blob, ""))
}

/// Installs a fresh calibration outcome as the active override set for
/// `base_key`, invalidating the now-stale cache entries: the
/// uncalibrated result and, when recalibration changed the override
/// set, the previous calibrated result. Invalidation deletes through
/// both cache tiers ([`ResultCache::remove`] tombstones the persistent
/// store), so a restart cannot resurrect a pre-calibration result.
fn store_calibration(
    shared: &Arc<Shared>,
    program: &str,
    config: &WireConfig,
    base_key: u128,
    calibration: reorder::CalibrationOutcome,
) {
    let fingerprint = override_fingerprint(&calibration.measured, &calibration.pinned);
    let mut invalidated = 0u64;
    if shared.cache.remove(base_key) {
        invalidated += 1;
    }
    if let Some(prior) = shared.calibration_for(base_key) {
        if prior.fingerprint != fingerprint {
            let prior_key = content_key(
                program,
                &config.cache_key_part_calibrated(&prior.fingerprint),
            );
            if shared.cache.remove(prior_key) {
                invalidated += 1;
            }
        }
    }
    let stored = Arc::new(StoredCalibration {
        fingerprint,
        rounds: calibration.rounds.len() as u64,
        converged: calibration.converged,
        measured: calibration.measured,
        pinned: calibration.pinned,
        invalidated,
    });
    shared
        .calibrations
        .lock()
        .expect("calibration store lock poisoned")
        .insert(base_key, stored);
}

/// A bound, not-yet-running daemon. Splitting bind from run lets callers
/// learn the ephemeral port before serving.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    waker_rx: UnixStream,
}

impl Server {
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = match &config.store_dir {
            Some(dir) => {
                ResultCache::with_store(config.cache_capacity, Arc::new(DiskStore::open(dir)?))
            }
            None => ResultCache::new(config.cache_capacity),
        };
        let (waker, waker_rx) = waker_pair()?;
        let shared = Arc::new(Shared {
            cache,
            metrics: Metrics::new(),
            calibrations: Mutex::new(HashMap::new()),
            pending: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
            waker_rx,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request or signal, then drains: stops
    /// accepting, finishes queued and in-flight requests, flushes the
    /// persistent cache tier, joins every worker, and returns.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let workers = self.shared.config.workers.max(1);
        let mut reactor = Reactor::new(&self.shared, &self.listener, self.waker_rx)?;
        let result = std::thread::scope(|scope| {
            for i in 0..workers {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("reordd-worker-{i}"))
                    .spawn_scoped(scope, move || worker_loop(&shared))
                    .expect("spawn worker");
            }
            let result = reactor.run();
            // Whatever ended the reactor (drain complete or an I/O
            // error), release the workers; the scope joins them.
            self.shared.request_shutdown();
            result
        });
        // Workers are gone: every computed result has reached the cache,
        // so this flush makes the next start warm.
        self.shared.cache.flush_store()?;
        result
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Reactor<'a> {
    shared: &'a Arc<Shared>,
    listener: &'a TcpListener,
    waker_rx: UnixStream,
    poller: Poller,
    conns: HashMap<u64, Connection>,
    next_token: u64,
    draining: bool,
    accepting: bool,
    drain_started: Option<Instant>,
}

impl<'a> Reactor<'a> {
    fn new(
        shared: &'a Arc<Shared>,
        listener: &'a TcpListener,
        waker_rx: UnixStream,
    ) -> io::Result<Reactor<'a>> {
        let mut poller = Poller::new()?;
        poller.register(fd_of(listener), TOKEN_LISTENER, Interest::READ)?;
        poller.register(fd_of(&waker_rx), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            shared,
            listener,
            waker_rx,
            poller,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
            accepting: true,
            drain_started: None,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if !self.draining && self.shared.shutting_down() {
                self.begin_drain();
            }
            self.poller.wait(&mut events, TICK.as_millis() as i32)?;
            for &ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => drain_wakes(&mut self.waker_rx),
                    token => self.conn_ready(token, ev),
                }
            }
            // Apply completions every iteration: wake-ups coalesce, and
            // the tick backstops a wake lost to a full pipe.
            self.apply_completions();
            self.scan_timers(Instant::now());
            if self.draining && self.drained() {
                return Ok(());
            }
        }
    }

    // -- accept path --------------------------------------------------------

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED, EMFILE...):
                // drop this readiness pass; the next event retries.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: std::net::TcpStream) {
        if self.conns.len() >= self.shared.config.max_connections {
            shed_connection(self.shared, stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(fd_of(&stream), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.shared
            .metrics
            .connections
            .fetch_add(1, Ordering::Relaxed);
        self.conns
            .insert(token, Connection::new(stream, self.shared.config.max_frame));
    }

    // -- connection events --------------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.writable {
            self.flush_conn(token);
            if !self.conns.contains_key(&token) {
                return;
            }
        }
        if ev.readable || ev.closed {
            let outcome = self
                .conns
                .get_mut(&token)
                .map(|conn| conn.read_some())
                .expect("checked above");
            match outcome {
                ReadOutcome::Progress | ReadOutcome::WouldBlock | ReadOutcome::Eof => {}
                ReadOutcome::Err(_) => return self.close_conn(token),
            }
            self.pump_conn(token);
        }
    }

    /// Parses buffered bytes into frames while the connection is in
    /// `Reading`, dispatching each to the worker queue (or shedding).
    fn pump_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                break;
            }
            match conn.assembler.next_frame() {
                Ok(Some(payload)) => {
                    conn.frame_started = None;
                    conn.last_activity = Instant::now();
                    self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    self.submit_job(token, payload);
                }
                Ok(None) => {
                    if conn.assembler.mid_frame() {
                        // The slow-loris clock starts at the first byte
                        // of a frame and stops when it completes.
                        conn.frame_started.get_or_insert_with(Instant::now);
                    }
                    break;
                }
                Err(len) => {
                    // An oversized announcement cannot be resynchronised
                    // past: reply, then close once the reply flushes.
                    self.shared
                        .metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    let reply = Response::Error(WireError::new(
                        ErrorCode::TooLarge,
                        format!(
                            "frame of {len} bytes exceeds limit {}",
                            self.shared.config.max_frame
                        ),
                    ));
                    conn.queue_frame(&reply.encode(), true);
                    self.flush_conn(token);
                    break;
                }
            }
        }
        // A peer that half-closed and has nothing owed is done.
        if let Some(conn) = self.conns.get(&token) {
            if conn.peer_eof
                && conn.state == ConnState::Reading
                && !conn.has_output()
                && !conn.assembler.mid_frame()
            {
                return self.close_conn(token);
            }
        }
        self.sync_interest(token);
    }

    /// Queues one parsed request for the workers, or sheds it with an
    /// `overload` reply that leaves the connection open.
    fn submit_job(&mut self, token: u64, payload: Vec<u8>) {
        let depth = {
            let mut pending = self.shared.pending.lock().expect("job queue lock poisoned");
            if pending.len() >= self.shared.config.queue_capacity {
                None
            } else {
                pending.push_back(Job {
                    conn: token,
                    payload,
                    enqueued_at: Instant::now(),
                });
                Some(pending.len() as u64)
            }
        };
        match depth {
            Some(depth) => {
                self.shared.metrics.set_queue_depth(depth);
                prolog_trace::counter("reordd.queue_depth", depth as f64);
                self.shared.pending_cv.notify_one();
                let conn = self.conns.get_mut(&token).expect("caller holds the conn");
                conn.state = ConnState::Waiting;
            }
            None => {
                self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Error(WireError::new(
                    ErrorCode::Overload,
                    "request queue full, request shed — retry with backoff",
                ));
                let conn = self.conns.get_mut(&token).expect("caller holds the conn");
                conn.queue_frame(&reply.encode(), false);
                self.flush_conn(token);
            }
        }
    }

    /// Moves completed replies from the workers onto their connections.
    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion list lock poisoned"),
        );
        for completion in batch {
            // The connection may have died while its request computed;
            // the reply is simply dropped (the result is cached, so a
            // reconnecting client gets it cheaply).
            if !self.conns.contains_key(&completion.conn) {
                continue;
            }
            let conn = self.conns.get_mut(&completion.conn).expect("checked above");
            conn.queue_frame(&completion.payload, completion.close_after);
            self.flush_conn(completion.conn);
        }
    }

    /// Writes as much pending output as the socket accepts, handling the
    /// `Writing → Reading` transition (or close) when it drains.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.write_some() {
            Err(_) => self.close_conn(token),
            Ok(false) => self.sync_interest(token),
            Ok(true) => {
                let close_after = matches!(conn.state, ConnState::Writing { close_after: true });
                if close_after || conn.peer_eof || self.draining {
                    // During drain every connection is single-shot: the
                    // reply in flight is honoured, then the socket goes.
                    return self.close_conn(token);
                }
                conn.state = ConnState::Reading;
                conn.last_activity = Instant::now();
                // A pipelining client may already have buffered the next
                // request.
                self.pump_conn(token);
            }
        }
    }

    // -- timers and lifecycle ----------------------------------------------

    fn scan_timers(&mut self, now: Instant) {
        let config = &self.shared.config;
        let mut doomed: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            let dead = match conn.state {
                ConnState::Reading => {
                    if conn.assembler.mid_frame() {
                        conn.frame_started.is_some_and(|started| {
                            now.duration_since(started) > config.frame_deadline
                        })
                    } else {
                        now.duration_since(conn.last_activity) > config.idle_timeout
                    }
                }
                // Bounded by the request budget: a completion always
                // arrives (timeouts are completions too).
                ConnState::Waiting => false,
                ConnState::Writing { .. } => now.duration_since(conn.last_activity) > WRITE_STALL,
            };
            if dead {
                doomed.push(token);
            }
        }
        for token in doomed {
            self.close_conn(token);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_started = Some(Instant::now());
        if self.accepting {
            self.accepting = false;
            let _ = self.poller.deregister(fd_of(self.listener));
        }
        // Idle connections have nothing owed; everyone else finishes
        // their request in flight and is closed after the reply.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.state == ConnState::Reading
                    && !conn.has_output()
                    && !conn.assembler.mid_frame()
            })
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn drained(&self) -> bool {
        if self
            .drain_started
            .is_some_and(|started| started.elapsed() > DRAIN_DEADLINE)
        {
            return true;
        }
        let owed = self
            .conns
            .values()
            .any(|conn| !matches!(conn.state, ConnState::Reading) || conn.has_output());
        if owed {
            return false;
        }
        let pending_empty = self
            .shared
            .pending
            .lock()
            .expect("job queue lock poisoned")
            .is_empty();
        let completions_empty = self
            .shared
            .completions
            .lock()
            .expect("completion list lock poisoned")
            .is_empty();
        pending_empty && completions_empty
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(fd_of(&conn.stream));
        }
    }

    /// Re-registers the connection with the interest its state implies:
    /// `Reading` listens, `Waiting` exerts backpressure (peer-close is
    /// still delivered via RDHUP), `Writing` waits for buffer space.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let interest = match conn.state {
            ConnState::Reading => Interest::READ,
            ConnState::Waiting => Interest::NONE,
            ConnState::Writing { .. } => Interest::WRITE,
        };
        let _ = self.poller.reregister(fd_of(&conn.stream), token, interest);
    }
}

/// Over the connection ceiling: best-effort `overload` reply, then
/// close. The fresh socket is still blocking; a bounded write timeout
/// keeps a slow reader from wedging the reactor.
fn shed_connection(shared: &Arc<Shared>, mut stream: std::net::TcpStream) {
    shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let reply = Response::Error(WireError::new(
        ErrorCode::Overload,
        "connection limit reached — retry with backoff",
    ));
    let _ = write_frame(&mut stream, &reply.encode());
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut pending = shared.pending.lock().expect("job queue lock poisoned");
            loop {
                // Pop before the shutdown check: drain serves every
                // queued request before the workers leave.
                if let Some(job) = pending.pop_front() {
                    shared.metrics.set_queue_depth(pending.len() as u64);
                    break Some(job);
                }
                if shared.shutting_down() {
                    break None;
                }
                let (reacquired, _) = shared
                    .pending_cv
                    .wait_timeout(pending, QUEUE_POLL)
                    .expect("job queue lock poisoned");
                pending = reacquired;
            }
        };
        let Some(job) = job else {
            return;
        };
        let wait_us = job.enqueued_at.elapsed().as_micros() as u64;
        shared.metrics.queue_wait.record(wait_us);
        prolog_trace::instant_with("reordd.queue_wait", || {
            prolog_trace::fields::Obj::new().u64("wait_us", wait_us)
        });
        shared.metrics.busy_workers.fetch_add(1, Ordering::Relaxed);
        let (reply, close_after) = match Request::decode(&job.payload) {
            Ok(request) => {
                // Framing is length-prefixed, so the reply order is the
                // request order and a `shutdown` reply is the last frame
                // its connection sees.
                let close = matches!(request, Request::Shutdown);
                (dispatch(shared, request), close)
            }
            Err(err) => {
                // Framing is intact, so a bad payload is recoverable:
                // reply and keep the connection.
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                (Response::Error(err), false)
            }
        };
        shared.metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
        let encode_span = prolog_trace::span("reordd.encode");
        let payload = reply.encode();
        drop(encode_span);
        shared.complete(Completion {
            conn: job.conn,
            payload,
            close_after,
        });
    }
}

fn dispatch(shared: &Arc<Shared>, request: Request) -> Response {
    match request {
        Request::Ping => {
            shared.metrics.pings.fetch_add(1, Ordering::Relaxed);
            Response::Pong
        }
        Request::Stats => {
            shared
                .metrics
                .stats_requests
                .fetch_add(1, Ordering::Relaxed);
            let body = shared.metrics.snapshot(
                shared.cache.counters(),
                shared.cache.len(),
                shared.config.cache_capacity,
                shared.config.queue_capacity,
                shared.config.workers,
                shared
                    .calibrations
                    .lock()
                    .expect("calibration store lock poisoned")
                    .len(),
                shared.cache.store_stats(),
            );
            Response::Stats(body)
        }
        Request::Shutdown => {
            shared.request_shutdown();
            Response::ShuttingDown
        }
        Request::Reorder {
            program,
            config,
            budget_ms,
        } => {
            shared.metrics.reorders.fetch_add(1, Ordering::Relaxed);
            let _request_span = prolog_trace::span_with("reordd.request", || {
                prolog_trace::fields::Obj::new()
                    .u64("program_bytes", program.len() as u64)
                    .u64("budget_ms", budget_ms.unwrap_or(0))
            });
            let budget = match budget_ms {
                Some(ms) => Duration::from_millis(ms).min(shared.config.budget),
                None => shared.config.budget,
            };
            let base_key = content_key(&program, &config.cache_key_part());
            // A stored calibration changes both the plan and the key:
            // the override-set fingerprint participates in the hash, so
            // a calibrated result never collides with the uncalibrated
            // one for the same program text and knobs.
            let calibration = shared.calibration_for(base_key);
            let key = match &calibration {
                Some(c) => content_key(&program, &config.cache_key_part_calibrated(&c.fingerprint)),
                None => base_key,
            };
            let reorder_config = config.to_reorder_config(shared.config.pipeline_jobs);
            let metrics_shared = Arc::clone(shared);
            let started = Instant::now();
            let fetch_span = prolog_trace::span("reordd.cache_fetch");
            let fetch = shared.cache.get_or_compute(key, budget, move || {
                let _compute_span = prolog_trace::span("reordd.compute");
                let t0 = Instant::now();
                let result = match &calibration {
                    Some(c) => reorder::reorder_source_calibrated(
                        &program,
                        &reorder_config,
                        &c.measured,
                        &c.pinned,
                    ),
                    None => reorder::reorder_source(&program, &reorder_config),
                };
                match result {
                    Ok(outcome) => {
                        metrics_shared
                            .metrics
                            .record_pipeline(&outcome.report.stats);
                        CachedOutcome::Ok {
                            program: outcome.text,
                            stats: outcome.report.stats,
                            cost_us: t0.elapsed().as_micros() as u64,
                        }
                    }
                    Err(e) => CachedOutcome::Err {
                        code: ErrorCode::Parse,
                        message: format!("parse error at {}: {}", e.pos, e.message),
                        line: e.pos.line,
                        col: e.pos.col,
                    },
                }
            });
            drop(fetch_span);
            let elapsed_us = started.elapsed().as_micros() as u64;
            let (value, cached) = match fetch {
                Fetch::Hit(value) => (value, true),
                Fetch::Computed(value) | Fetch::Coalesced(value) => (value, false),
                Fetch::TimedOut => {
                    shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Response::Error(WireError::new(
                        ErrorCode::Timeout,
                        format!(
                            "request budget of {} ms expired; the computation continues \
                             and will be cached — retry",
                            budget.as_millis()
                        ),
                    ));
                }
            };
            match value.as_ref() {
                CachedOutcome::Ok { program, stats, .. } => {
                    shared.metrics.service.record(elapsed_us);
                    if cached {
                        shared.metrics.hit_latency.record(elapsed_us);
                    } else {
                        shared.metrics.cold_latency.record(elapsed_us);
                    }
                    prolog_trace::instant_with("reordd.served", || {
                        prolog_trace::fields::Obj::new()
                            .bool("cached", cached)
                            .u64("elapsed_us", elapsed_us)
                    });
                    let pipeline =
                        Json::parse(&stats.to_json()).expect("RunStats::to_json emits valid JSON");
                    Response::Reordered {
                        program: program.clone(),
                        cached,
                        elapsed_us,
                        pipeline,
                    }
                }
                CachedOutcome::Err {
                    code,
                    message,
                    line,
                    col,
                } => {
                    match code {
                        ErrorCode::Parse => {
                            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed)
                        }
                        ErrorCode::Panic => shared.metrics.panics.fetch_add(1, Ordering::Relaxed),
                        _ => 0,
                    };
                    Response::Error(WireError {
                        code: *code,
                        message: message.clone(),
                        line: *line,
                        col: *col,
                    })
                }
            }
        }
        Request::Calibrate {
            program,
            config,
            rounds,
            budget_ms,
        } => {
            shared.metrics.calibrates.fetch_add(1, Ordering::Relaxed);
            let _request_span = prolog_trace::span_with("reordd.calibrate", || {
                prolog_trace::fields::Obj::new()
                    .u64("program_bytes", program.len() as u64)
                    .u64("rounds", rounds as u64)
            });
            let budget = match budget_ms {
                Some(ms) => Duration::from_millis(ms).min(shared.config.budget),
                None => shared.config.budget,
            };
            let base_key = content_key(&program, &config.cache_key_part());
            // The calibrate computation is content-addressed on its own
            // key — the loop is deterministic in (program, knobs,
            // rounds) — while its *side effect* (the stored override
            // set) is keyed by `base_key`.
            let cal_key = content_key(
                &program,
                &format!("{}|calreq:r{rounds}", config.cache_key_part()),
            );
            let reorder_config = config.to_reorder_config(shared.config.pipeline_jobs);
            let compute_shared = Arc::clone(shared);
            let started = Instant::now();
            let fetch = shared.cache.get_or_compute(cal_key, budget, move || {
                let _compute_span = prolog_trace::span("reordd.calibrate_compute");
                let t0 = Instant::now();
                let opts = reorder::CalibrationOptions {
                    rounds,
                    ..Default::default()
                };
                match reorder::calibrate_source(&program, &reorder_config, &opts) {
                    Ok((outcome, calibration)) => {
                        store_calibration(
                            &compute_shared,
                            &program,
                            &config,
                            base_key,
                            calibration,
                        );
                        compute_shared
                            .metrics
                            .record_pipeline(&outcome.report.stats);
                        CachedOutcome::Ok {
                            program: outcome.text,
                            stats: outcome.report.stats,
                            cost_us: t0.elapsed().as_micros() as u64,
                        }
                    }
                    Err(e) => CachedOutcome::Err {
                        code: ErrorCode::Parse,
                        message: format!("parse error at {}: {}", e.pos, e.message),
                        line: e.pos.line,
                        col: e.pos.col,
                    },
                }
            });
            let elapsed_us = started.elapsed().as_micros() as u64;
            let (value, cached) = match fetch {
                Fetch::Hit(value) => (value, true),
                Fetch::Computed(value) | Fetch::Coalesced(value) => (value, false),
                Fetch::TimedOut => {
                    shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Response::Error(WireError::new(
                        ErrorCode::Timeout,
                        format!(
                            "request budget of {} ms expired; the calibration continues \
                             and will be cached — retry",
                            budget.as_millis()
                        ),
                    ));
                }
            };
            match value.as_ref() {
                CachedOutcome::Ok { program, stats, .. } => {
                    shared.metrics.service.record(elapsed_us);
                    if cached {
                        shared.metrics.hit_latency.record(elapsed_us);
                    } else {
                        shared.metrics.cold_latency.record(elapsed_us);
                    }
                    let pipeline =
                        Json::parse(&stats.to_json()).expect("RunStats::to_json emits valid JSON");
                    // The loop summary comes from the store, which the
                    // compute closure populated; `invalidated` describes
                    // that original landing, so a cached reply (which
                    // evicted nothing) reports zero.
                    let stored = shared.calibration_for(base_key);
                    Response::Calibrated {
                        program: program.clone(),
                        cached,
                        elapsed_us,
                        rounds: stored.as_ref().map_or(rounds as u64, |c| c.rounds),
                        converged: stored.as_ref().is_some_and(|c| c.converged),
                        pinned: stored.as_ref().map_or_else(Vec::new, |c| {
                            c.pinned.iter().map(|p| p.to_string()).collect()
                        }),
                        invalidated: if cached {
                            0
                        } else {
                            stored.as_ref().map_or(0, |c| c.invalidated)
                        },
                        pipeline,
                    }
                }
                CachedOutcome::Err {
                    code,
                    message,
                    line,
                    col,
                } => {
                    match code {
                        ErrorCode::Parse => {
                            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed)
                        }
                        ErrorCode::Panic => shared.metrics.panics.fetch_add(1, Ordering::Relaxed),
                        _ => 0,
                    };
                    Response::Error(WireError {
                        code: *code,
                        message: message.clone(),
                        line: *line,
                        col: *col,
                    })
                }
            }
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that flip [`SIGNALLED`]. The reactor
/// notices within [`TICK`] and starts a graceful drain. Raw `signal(2)`
/// through the C ABI — no crates, and the handler body is a single
/// atomic store, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}
