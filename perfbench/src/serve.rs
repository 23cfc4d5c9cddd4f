//! The serving boundary: request frame to reply frame through a `reordd`
//! daemon with a store directory, run in-process with the shipped
//! `ServerConfig` (an ephemeral port and the store directory are the only
//! settings given).
//!
//! The load generator is the benchmark's own. It drives an open loop
//! from a seeded arrival schedule, times every request from its intended
//! send time, never retries (an `overload` or `timeout` reply is a
//! failure), and records how late it ran and how many requests it had
//! outstanding. A run drives the open loop in several segments spread
//! over its measuring time. A closed loop on the same mix then measures
//! the saturated throughput. Both use at most `nproc` connections, one
//! thread each.

use crate::inputs::{mix, Inputs, Program, ServeSpec};
use crate::query::Tally;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reordd::conn::FrameAssembler;
use reordd::{read_frame, write_frame, Json, Request, Response, Server, ServerConfig, MAX_FRAME};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub fn reorder_request(program: String) -> Vec<u8> {
    Request::Reorder {
        program,
        config: Default::default(),
        budget_ms: None,
    }
    .encode()
}

/// Connect, read and write timeout of every benchmark connection.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A running daemon and the thread serving it.
pub struct Daemon {
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds over `store` (recovering whatever it holds) and starts
    /// serving. Returns the daemon and the bind time in milliseconds,
    /// which is the store's recovery time.
    pub fn start(store: &Path) -> io::Result<(Daemon, f64)> {
        let config = ServerConfig {
            store_dir: Some(store.to_path_buf()),
            ..ServerConfig::default()
        };
        let t = Instant::now();
        let server = Server::bind(config)?;
        let bind_ms = t.elapsed().as_secs_f64() * 1e3;
        let addr = server.local_addr();
        let thread = std::thread::Builder::new()
            .name("reordd".into())
            .spawn(move || server.run())?;
        Ok((Daemon { addr, thread }, bind_ms))
    }

    fn call(&self, request: &Request) -> io::Result<Response> {
        reordd::Client::connect(self.addr, IO_TIMEOUT)?.call(request)
    }

    pub fn stats(&self) -> io::Result<Json> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(io::Error::other(format!("stats: unexpected {other:?}"))),
        }
    }

    /// Drains the daemon (which flushes the store) and waits for it.
    /// Returns the drain time in milliseconds.
    pub fn stop(self) -> io::Result<f64> {
        let t = Instant::now();
        let reply = self.call(&Request::Shutdown);
        let joined = self
            .thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        reply?;
        joined?;
        Ok(ms)
    }
}

/// The daemon of one run, set up over a fresh store: the pool sent once,
/// the daemon drained, and restarted over the store.
pub struct Served {
    pub daemon: Daemon,
    pub store: PathBuf,
    /// Pre-encoded `reorder` requests, one per pool program.
    pub pool: Vec<Vec<u8>>,
    texts: Vec<String>,
    /// Hash of the reordered text each pool program must come back as.
    pub expected: Vec<u64>,
    seed: u64,
    fresh_bases: usize,
    pub flush_ms: f64,
    pub recover_ms: f64,
    pub tally: Tally,
}

impl Served {
    pub fn setup(
        programs: &[Program],
        references: &[crate::reorder::Reference],
        spec: &ServeSpec,
        seed: u64,
        store: PathBuf,
    ) -> io::Result<Served> {
        if store.exists() {
            std::fs::remove_dir_all(&store)?;
        }
        std::fs::create_dir_all(&store)?;
        let pool: Vec<Vec<u8>> = programs
            .iter()
            .map(|p| reorder_request(p.text.clone()))
            .collect();
        let expected: Vec<u64> = references
            .iter()
            .map(|r| Reply::expected(&r.text).unwrap_or(0))
            .collect();
        let (daemon, _) = Daemon::start(&store)?;
        let mut tally = Tally::default();
        // Warm: every pool program once, one at a time, so the set-up's
        // memory peak does not depend on which reorders overlap.
        let mut stream = connect(daemon.addr)?;
        for (i, request) in pool.iter().enumerate() {
            write_frame(&mut stream, request)?;
            let frame = read_frame(&mut stream, MAX_FRAME)?
                .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
            tally.check(Reply::scan(&frame).hash == Some(expected[i]), || {
                format!("serve warm-up: {} came back different", programs[i].name)
            });
        }
        drop(stream);
        let flush_ms = daemon.stop()?;
        let (daemon, recover_ms) = Daemon::start(&store)?;
        Ok(Served {
            daemon,
            store,
            pool,
            texts: programs.iter().map(|p| p.text.clone()).collect(),
            expected,
            seed,
            fresh_bases: spec.fresh_bases.min(programs.len()),
            flush_ms,
            recover_ms,
            tally,
        })
    }

    /// The pool program the `index`-th never-seen program is made from.
    pub fn fresh_base(&self, index: u64) -> usize {
        (mix(self.seed, 5, index) % self.fresh_bases as u64) as usize
    }

    /// The `index`-th never-seen program: its base with a unique comment
    /// appended, which changes the cache key and nothing else.
    pub fn fresh_text(&self, index: u64) -> String {
        let base = &self.texts[self.fresh_base(index)];
        format!("{base}% never seen before: {}/{index}\n", self.seed)
    }

    /// The request a slot sends.
    fn request(&self, slot: Slot) -> std::borrow::Cow<'_, [u8]> {
        match slot {
            Slot::Pool(i) => std::borrow::Cow::Borrowed(&self.pool[i as usize]),
            Slot::Fresh(i) => std::borrow::Cow::Owned(reorder_request(self.fresh_text(i))),
        }
    }

    /// The pool program whose reordered text a slot's reply must carry.
    pub fn answer_of(&self, slot: Slot) -> usize {
        match slot {
            Slot::Pool(i) => i as usize,
            Slot::Fresh(i) => self.fresh_base(i),
        }
    }

    /// Stops the daemon and removes its store.
    pub fn teardown(self) -> io::Result<()> {
        self.daemon.stop()?;
        std::fs::remove_dir_all(&self.store)
    }
}

/// Connections, and load-generator threads: one per processor.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

// ---------------------------------------------------------------------------
// Request draws
// ---------------------------------------------------------------------------

/// What a request carries: a pool program or a never-seen one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    Pool(u32),
    Fresh(u64),
}

/// Draws request contents: every `fresh_every`-th draw is a program never
/// sent before, the others Zipf over the pool by position.
pub struct Mix {
    rng: StdRng,
    cdf: Vec<f64>,
    fresh_every: u64,
    draws: u64,
    fresh_next: u64,
    fresh_stride: u64,
}

impl Mix {
    /// `stream` separates the draws of different connections and loops;
    /// fresh indices are `stream + k * streams`, so no two streams share
    /// a fresh program.
    pub fn new(seed: u64, pool: usize, spec: &ServeSpec, stream: u64, streams: u64) -> Mix {
        let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-spec.zipf_s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            rng: StdRng::seed_from_u64(mix(seed, 7, stream)),
            cdf,
            fresh_every: spec.fresh_every,
            // Streams start at different points of the fresh cadence.
            draws: stream,
            fresh_next: stream,
            fresh_stride: streams,
        }
    }

    fn unit(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    pub fn draw(&mut self) -> Slot {
        self.draws += 1;
        if self.fresh_every > 0 && self.draws.is_multiple_of(self.fresh_every) {
            let i = self.fresh_next;
            self.fresh_next += self.fresh_stride;
            return Slot::Fresh(i);
        }
        let u = self.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        Slot::Pool(rank as u32)
    }

    /// Exponential gap of a Poisson process with rate `rate` per second.
    pub fn gap(&mut self, rate: f64) -> Duration {
        let u = self.unit();
        Duration::from_secs_f64(-(1.0 - u).ln() / rate)
    }
}

/// Draw streams of a run. The closed loop draws from streams
/// `0..conns`, and the open-loop segment `s` of connection `c` from
/// stream `conns * (s + 1) + c`; the stride between a stream's fresh
/// programs is this many, so no two streams share one.
const STREAMS: u64 = 1 << 16;

/// The open-loop schedule of connection `conn` in segment `segment`:
/// intended send offsets from the segment start, and what each request
/// carries.
pub fn open_schedule(
    inputs: &Inputs,
    pool: usize,
    conn: usize,
    conns: usize,
    segment: u64,
    duration: Duration,
) -> Vec<(Duration, Slot)> {
    let spec = &inputs.serve;
    let stream = conns as u64 * (segment + 1) + conn as u64;
    let mut draws = Mix::new(inputs.seed, pool, spec, stream, STREAMS);
    let rate = spec.rate_rps / conns as f64;
    let mut at = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        at += draws.gap(rate);
        if at >= duration {
            return out;
        }
        out.push((at, draws.draw()));
    }
}

// ---------------------------------------------------------------------------
// Replies and records
// ---------------------------------------------------------------------------

/// The parts of a reply the benchmark checks and splits by.
#[derive(Debug, Clone, Copy, Default)]
struct Reply {
    /// Hash of the reply's encoded `program` string; `None` when the
    /// reply carries no program (an error, overload or timeout reply).
    hash: Option<u64>,
    cached: bool,
}

impl Reply {
    /// Reads the reply without decoding it: the encoded `program` string
    /// is hashed in place, so the check costs a scan of the frame instead
    /// of a JSON decode on the load generator's thread.
    fn scan(frame: &[u8]) -> Reply {
        Reply {
            hash: encoded_program(frame).map(|bytes| {
                let mut h = DefaultHasher::new();
                bytes.hash(&mut h);
                h.finish()
            }),
            cached: find(frame, b"\"cached\":true").is_some(),
        }
    }

    /// The reply a correct daemon sends for `program`, as [`Reply::scan`]
    /// reads it.
    fn expected(program: &str) -> Option<u64> {
        let reply = Response::Reordered {
            program: program.to_string(),
            cached: false,
            elapsed_us: 0,
            pipeline: Json::Null,
        };
        Reply::scan(&reply.encode()).hash
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The still-encoded string value of the `program` member of a reply
/// frame. A key cannot occur inside an encoded string, where every
/// quote is escaped, so the first match is the member itself.
fn encoded_program(frame: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"program\":\"";
    let start = find(frame, KEY)? + KEY.len();
    let mut i = start;
    while i < frame.len() {
        match frame[i] {
            b'\\' => i += 2,
            b'"' => return Some(&frame[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// One request of a serving phase.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub slot: Slot,
    pub intended: Instant,
    pub sent: Option<Instant>,
    pub replied: Option<Instant>,
    reply: Reply,
    /// Time spent waiting behind the previous request of its connection.
    pub conn_wait: Duration,
    /// Set by [`verify`]: a correct reply.
    pub ok: bool,
}

impl Record {
    fn new(slot: Slot, intended: Instant) -> Record {
        Record {
            slot,
            intended,
            sent: None,
            replied: None,
            reply: Reply::default(),
            conn_wait: Duration::ZERO,
            ok: false,
        }
    }

    /// Latency from the intended send time.
    pub fn latency_ms(&self) -> Option<f64> {
        self.replied
            .map(|r| (r - self.intended).as_secs_f64() * 1e3)
    }

    /// Round trip from the actual send.
    pub fn rtt_ms(&self) -> Option<f64> {
        Some((self.replied? - self.sent?).as_secs_f64() * 1e3)
    }

    pub fn lag_ms(&self) -> Option<f64> {
        self.sent.map(|s| (s - self.intended).as_secs_f64() * 1e3)
    }

    pub fn cached(&self) -> bool {
        self.reply.cached
    }
}

/// Checks every reply against the setup's local `reorder_source` run of
/// the pool program it was made from.
pub fn verify(records: &mut [Record], served: &Served) -> Tally {
    let mut tally = Tally::default();
    for r in records.iter_mut() {
        let want = served.expected[served.answer_of(r.slot)];
        r.ok = r.replied.is_some() && r.reply.hash == Some(want);
        let slot = r.slot;
        tally.check(r.ok, || format!("serve: {slot:?} missing or wrong reply"));
    }
    tally
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Waits until `stream` is readable (or writable, with `write`) or
/// `timeout` passes, with the nanosecond timer `ppoll` offers — the
/// millisecond timeouts of `poll` and socket options would add up to a
/// millisecond of generator lag to every send.
fn wait(stream: &TcpStream, write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are valid for the duration of the call, the
    // count matches the single descriptor, and a null signal mask leaves
    // the thread's mask unchanged. Errors (EINTR) just end the wait early.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// What one open-loop connection recorded.
pub struct OpenConn {
    pub records: Vec<Record>,
    pub backlog_max: usize,
}

/// Sends `schedule` on one connection, each request at its intended time
/// whether or not earlier ones were answered, and reads replies as they
/// come. Requests still unanswered at `deadline` are dropped.
fn open_conn(
    served: &Served,
    start: Instant,
    schedule: &[(Duration, Slot)],
    deadline: Instant,
) -> io::Result<OpenConn> {
    // Requests are encoded before the clock starts.
    let payloads: Vec<_> = schedule
        .iter()
        .map(|(_, slot)| served.request(*slot))
        .collect();
    let mut stream = connect(served.daemon.addr)?;
    stream.set_nonblocking(true)?;
    let mut records: Vec<Record> = schedule
        .iter()
        .map(|(at, slot)| Record::new(*slot, start + *at))
        .collect();
    let mut assembler = FrameAssembler::new(MAX_FRAME);
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut buf = vec![0u8; 1 << 16];
    let (mut next_send, mut next_reply, mut backlog_max) = (0, 0, 0);
    let mut last_reply: Option<Instant> = None;
    while next_reply < records.len() {
        let now = Instant::now();
        while next_send < records.len() && records[next_send].intended <= now {
            let payload = &payloads[next_send];
            out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            out.extend_from_slice(payload);
            records[next_send].sent = Some(now);
            next_send += 1;
        }
        backlog_max = backlog_max.max(next_send - next_reply);
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => assembler.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let t = Instant::now();
        while let Some(frame) = assembler
            .next_frame()
            .map_err(|len| io::Error::other(format!("reply of {len} bytes")))?
        {
            let r = &mut records[next_reply];
            let sent = r.sent.expect("replies follow sends");
            r.conn_wait = last_reply.map_or(Duration::ZERO, |l| l.saturating_duration_since(sent));
            r.replied = Some(t);
            r.reply = Reply::scan(&frame);
            last_reply = Some(t);
            next_reply += 1;
        }
        if t >= deadline {
            break;
        }
        let until_send = records
            .get(next_send)
            .map_or(Duration::from_millis(50), |r| {
                r.intended.saturating_duration_since(t)
            });
        wait(
            &stream,
            out_pos < out.len(),
            until_send.min(Duration::from_millis(50)),
        );
    }
    Ok(OpenConn {
        records,
        backlog_max,
    })
}

/// One open-loop segment: one schedule per connection, all started
/// together.
pub fn open_loop(
    served: &Served,
    inputs: &Inputs,
    segment: u64,
    duration: Duration,
) -> io::Result<(Vec<Record>, usize)> {
    let conns = connections();
    let schedules: Vec<_> = (0..conns)
        .map(|c| open_schedule(inputs, served.pool.len(), c, conns, segment, duration))
        .collect();
    // A short lead so every connection is up before the first send.
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + duration + Duration::from_secs(10);
    let results: Vec<io::Result<OpenConn>> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| s.spawn(move || open_conn(served, start, schedule, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut backlog = 0;
    for r in results {
        let conn = r?;
        records.extend(conn.records);
        backlog = backlog.max(conn.backlog_max);
    }
    Ok((records, backlog))
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

/// The closed-loop phase: each connection sends its next request when the
/// previous reply arrives, for `duration`.
pub fn closed_loop(
    served: &Served,
    inputs: &Inputs,
    duration: Duration,
) -> io::Result<(Vec<Record>, Duration)> {
    let conns = connections();
    let start = Instant::now();
    let stop = start + duration;
    let results: Vec<io::Result<Vec<Record>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut draws = Mix::new(
                    inputs.seed,
                    served.pool.len(),
                    &inputs.serve,
                    c as u64,
                    STREAMS,
                );
                s.spawn(move || -> io::Result<Vec<Record>> {
                    let mut stream = connect(served.daemon.addr)?;
                    let mut records = Vec::new();
                    while Instant::now() < stop {
                        let slot = draws.draw();
                        let payload = served.request(slot);
                        let t0 = Instant::now();
                        let mut r = Record::new(slot, t0);
                        r.sent = Some(t0);
                        write_frame(&mut stream, &payload)?;
                        let frame = read_frame(&mut stream, MAX_FRAME)?
                            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
                        r.replied = Some(Instant::now());
                        r.reply = Reply::scan(&frame);
                        records.push(r);
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    Ok((records, elapsed))
}

// ---------------------------------------------------------------------------
// Daemon-side figures
// ---------------------------------------------------------------------------

/// Numbers read from the daemon's `stats` reply.
#[derive(Debug, Default)]
pub struct DaemonStats {
    pub values: BTreeMap<&'static str, f64>,
    /// Summed queue wait and service time over every request, in ms.
    pub queue_ms: f64,
    pub queue_count: f64,
    pub service_ms: f64,
}

pub fn daemon_stats(json: &Json) -> DaemonStats {
    let num = |path: &[&str]| -> f64 {
        let mut node = json;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return f64::NAN,
            }
        }
        node.as_f64().unwrap_or(f64::NAN)
    };
    let latency = |class: &str, field: &str| num(&["latency", class, field]);
    let hits = num(&["cache", "hits"]);
    let misses = num(&["cache", "misses"]);
    let mut values = BTreeMap::new();
    values.insert(
        "reordd.queue_wait_us_mean",
        latency("queue_wait", "mean_us"),
    );
    values.insert("reordd.service_us_mean", latency("service", "mean_us"));
    values.insert("reordd.cold_us_mean", latency("cold", "mean_us"));
    values.insert("reordd.hit_us_mean", latency("hit", "mean_us"));
    values.insert("reordd.cache_hit_ratio", hits / (hits + misses));
    values.insert("reordd.disk_hits", num(&["cache", "disk_hits"]));
    values.insert("reordd.shed", num(&["shed"]));
    values.insert(
        "reordd.timeouts",
        num(&["requests", "timeouts"]) + num(&["cache", "timeouts"]),
    );
    DaemonStats {
        values,
        queue_ms: latency("queue_wait", "count") * latency("queue_wait", "mean_us") / 1e3,
        queue_count: latency("queue_wait", "count"),
        service_ms: latency("service", "count") * latency("service", "mean_us") / 1e3,
    }
}

/// Median round trip of `n` `ping` requests on one connection, in
/// milliseconds: the fixed cost of a frame's trip through the sockets,
/// the reactor and a worker's queue, with no work behind it.
pub fn ping_rtt_ms(addr: SocketAddr, n: usize) -> io::Result<f64> {
    let mut stream = connect(addr)?;
    let ping = Request::Ping.encode();
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        write_frame(&mut stream, &ping)?;
        read_frame(&mut stream, MAX_FRAME)?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&samples))
}

/// Time the daemon's codec spends on a request and its reply — request
/// decode before dispatch and reply encode after it, which the daemon's
/// service time does not cover — measured by calling the same public
/// codec functions on the same bytes. Returns milliseconds.
pub fn codec_ms(request: &[u8], reply_program: &str) -> f64 {
    let t = Instant::now();
    std::hint::black_box(Request::decode(request).ok());
    let decode = t.elapsed();
    let reply = Response::Reordered {
        program: reply_program.to_string(),
        cached: true,
        elapsed_us: 0,
        pipeline: Json::Null,
    };
    let t = Instant::now();
    std::hint::black_box(reply.encode());
    (decode + t.elapsed()).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    #[test]
    fn replies_are_checked_without_decoding() {
        let text = "p(X) :- q(X, \"a\\b\").\n";
        let reply = Response::Reordered {
            program: text.to_string(),
            cached: true,
            elapsed_us: 17,
            pipeline: Json::Obj(vec![("program".into(), Json::Num(1.0))]),
        };
        let scanned = Reply::scan(&reply.encode());
        assert_eq!(scanned.hash, Reply::expected(text));
        assert!(scanned.cached);
        assert_ne!(scanned.hash, Reply::expected("p(X) :- q(X).\n"));
        let error = Response::Error(reordd::WireError::new(reordd::ErrorCode::Overload, "busy"));
        assert_eq!(Reply::scan(&error.encode()).hash, None);
    }

    #[test]
    fn the_same_seed_gives_the_same_schedules_and_draws() {
        let inputs = Inputs::new(Workload::ServeMixed, 11);
        let second = Duration::from_secs(1);
        let a = open_schedule(&inputs, 300, 0, 2, 0, second);
        let b = open_schedule(&inputs, 300, 0, 2, 0, second);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(a, open_schedule(&inputs, 300, 1, 2, 0, second));
        assert_ne!(a, open_schedule(&inputs, 300, 0, 2, 1, second));
        let other = Inputs::new(Workload::ServeMixed, 12);
        assert_ne!(a, open_schedule(&other, 300, 0, 2, 0, second));
        let draws = |stream| {
            let mut m = Mix::new(11, 300, &inputs.serve, stream, 4);
            (0..500).map(|_| m.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draws(2), draws(2));
        // Fresh indices never collide across streams.
        let fresh = |stream| -> Vec<u64> {
            draws(stream)
                .into_iter()
                .filter_map(|s| match s {
                    Slot::Fresh(i) => Some(i),
                    Slot::Pool(_) => None,
                })
                .collect()
        };
        let (x, y) = (fresh(0), fresh(1));
        assert_eq!(x.len() as u64, 500 / inputs.serve.fresh_every);
        assert!(x.iter().all(|i| !y.contains(i)));
    }

    #[test]
    fn zipf_draws_favour_the_head_of_the_pool() {
        let spec = ServeSpec {
            fresh_every: 0,
            ..Inputs::new(Workload::ServeMixed, 3).serve
        };
        let mut m = Mix::new(3, 300, &spec, 0, 1);
        let mut counts = vec![0usize; 300];
        for _ in 0..20_000 {
            let Slot::Pool(i) = m.draw() else {
                panic!("no fresh draws when fresh_every is 0")
            };
            counts[i as usize] += 1;
        }
        assert!(counts[0] > 20 * counts[299].max(1));
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
    }
}
