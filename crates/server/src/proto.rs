//! The `reordd` wire protocol: length-prefixed JSON frames.
//!
//! Hand-rolled on purpose — the build environment has no registry
//! access, so framing, a small JSON value type, its parser/writer, and
//! the request/response schemas all live here, behind `std` only. The
//! format is specified normatively in `PROTOCOL.md`; this module is the
//! reference implementation both ends (daemon, bench client, tests)
//! share.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. One request frame yields exactly one response
//! frame, in order, per connection.

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version spoken by this build. Requests may omit `"v"`
/// (assumed current) or send an older-or-equal version; a newer version
/// is rejected with `bad_request` so old servers fail loudly rather than
/// misread new fields.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard ceiling on a frame payload. Larger programs must be split or
/// submitted out of band; the daemon replies `too_large` and closes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Nesting depth cap for incoming JSON — the daemon must survive
/// adversarial payloads without blowing its parse stack.
const MAX_DEPTH: usize = 64;

/// Calibration rounds assumed when a `calibrate` request omits
/// `"rounds"` — matches `reorder-prolog --calibrate-report`'s implied
/// round count.
pub const DEFAULT_CALIBRATE_ROUNDS: usize = 2;

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A JSON document. Object member order is preserved (encoding is
/// deterministic, which the tests rely on).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The entire input must be one value (plus
    /// trailing whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

use std::fmt::Write as _;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid token at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("invalid token at byte {start}"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf-8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    let mut pending_surrogate: Option<u16> = None;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                if pending_surrogate.is_some() {
                    return Err("unpaired surrogate".to_string());
                }
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                let simple = match esc {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'b' => Some('\u{08}'),
                    b'f' => Some('\u{0c}'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'u' => None,
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                };
                match simple {
                    Some(c) => {
                        if pending_surrogate.is_some() {
                            return Err("unpaired surrogate".to_string());
                        }
                        out.push(c);
                    }
                    None => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u16::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        match (pending_surrogate.take(), hex) {
                            (None, 0xD800..=0xDBFF) => pending_surrogate = Some(hex),
                            (None, 0xDC00..=0xDFFF) => return Err("unpaired surrogate".to_string()),
                            (None, unit) => match char::from_u32(unit as u32) {
                                Some(c) => out.push(c),
                                None => return Err("bad code point".to_string()),
                            },
                            (Some(high), 0xDC00..=0xDFFF) => {
                                let combined = 0x10000
                                    + (((high as u32) - 0xD800) << 10)
                                    + ((hex as u32) - 0xDC00);
                                match char::from_u32(combined) {
                                    Some(c) => out.push(c),
                                    None => return Err("bad surrogate pair".to_string()),
                                }
                            }
                            (Some(_), _) => return Err("unpaired surrogate".to_string()),
                        }
                    }
                }
            }
            _ if pending_surrogate.is_some() => return Err("unpaired surrogate".to_string()),
            _ => {
                // Copy the whole run up to the next quote or escape in one
                // step (control bytes are technically invalid JSON; accept
                // them leniently). Both delimiters are ASCII, so the run
                // ends on a character boundary of the `&str` input.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "bad utf-8")?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one `len:u32be ++ payload` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed cleanly at a frame
/// boundary. An announced length above `max` is an error (the stream can
/// no longer be trusted).
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(mut filled) => {
            while filled < 4 {
                let n = r.read(&mut header[filled..])?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                filled += n;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {max}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Pipeline knobs a client may set per request. Everything that changes
/// the *output bytes* participates in the cache key; `jobs` deliberately
/// does not (output is byte-identical for any worker count — pinned by
/// the determinism suite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireConfig {
    /// Pipeline worker threads; `0` means the server's configured
    /// default.
    pub jobs: usize,
    pub specialize: bool,
    pub goals: bool,
    pub clauses: bool,
    /// Use the paper-faithful Markov-chain cost model instead of the
    /// generator-tree refinement.
    pub markov: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            jobs: 0,
            specialize: true,
            goals: true,
            clauses: true,
            markov: false,
        }
    }
}

impl WireConfig {
    /// Canonical encoding of the output-affecting knobs, appended to the
    /// program text before hashing.
    pub fn cache_key_part(&self) -> String {
        format!(
            "s{}g{}c{}m{}",
            self.specialize as u8, self.goals as u8, self.clauses as u8, self.markov as u8
        )
    }

    /// Cache-key component for results produced under a calibration
    /// override set. The override-set fingerprint participates in the
    /// hash, so a calibrated result can never collide with the
    /// uncalibrated result — or with a result under a *different*
    /// override set — for the same program and knobs.
    pub fn cache_key_part_calibrated(&self, override_fingerprint: &str) -> String {
        format!("{}|cal:{override_fingerprint}", self.cache_key_part())
    }

    /// The effective pipeline configuration, with `jobs == 0` resolved
    /// to the server default.
    pub fn to_reorder_config(&self, default_jobs: usize) -> reorder::ReorderConfig {
        reorder::ReorderConfig {
            specialize_modes: self.specialize,
            reorder_goals: self.goals,
            reorder_clauses: self.clauses,
            cost_model: if self.markov {
                reorder::CostModelKind::MarkovChain
            } else {
                reorder::CostModelKind::GeneratorTree
            },
            jobs: if self.jobs == 0 {
                default_jobs
            } else {
                self.jobs
            },
            ..reorder::ReorderConfig::default()
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Reorder {
        program: String,
        config: WireConfig,
        /// Per-request time budget in milliseconds, clamped to the
        /// server's configured maximum.
        budget_ms: Option<u64>,
    },
    /// Run the closed calibration loop on `program` server-side: measure
    /// predicate costs on the real engine, re-plan to a fixed point, and
    /// install the converged override set as the daemon's active
    /// calibration for this `(program, config)`. Later `reorder`
    /// requests for the same pair are served from the calibrated plan.
    Calibrate {
        program: String,
        config: WireConfig,
        /// Measure → re-plan round budget (≥ 1).
        rounds: usize,
        budget_ms: Option<u64>,
    },
    Stats,
    Ping,
    Shutdown,
}

impl Request {
    /// Encodes the request as a JSON payload (client side).
    pub fn encode(&self) -> Vec<u8> {
        let v = ("v".to_string(), Json::Num(PROTOCOL_VERSION as f64));
        let json = match self {
            Request::Reorder {
                program,
                config,
                budget_ms,
            } => {
                let mut members = vec![
                    v,
                    ("type".to_string(), Json::Str("reorder".to_string())),
                    ("program".to_string(), Json::Str(program.clone())),
                ];
                push_config_and_budget(&mut members, config, budget_ms);
                Json::Obj(members)
            }
            Request::Calibrate {
                program,
                config,
                rounds,
                budget_ms,
            } => {
                let mut members = vec![
                    v,
                    ("type".to_string(), Json::Str("calibrate".to_string())),
                    ("program".to_string(), Json::Str(program.clone())),
                    ("rounds".to_string(), Json::Num(*rounds as f64)),
                ];
                push_config_and_budget(&mut members, config, budget_ms);
                Json::Obj(members)
            }
            Request::Stats => Json::Obj(vec![
                v,
                ("type".to_string(), Json::Str("stats".to_string())),
            ]),
            Request::Ping => {
                Json::Obj(vec![v, ("type".to_string(), Json::Str("ping".to_string()))])
            }
            Request::Shutdown => Json::Obj(vec![
                v,
                ("type".to_string(), Json::Str("shutdown".to_string())),
            ]),
        };
        json.encode().into_bytes()
    }

    /// Decodes a request payload (server side). Errors carry the wire
    /// error code to reply with.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| WireError::bad_request("payload is not UTF-8"))?;
        let json = Json::parse(text)
            .map_err(|e| WireError::bad_request(format!("payload is not JSON: {e}")))?;
        if let Some(v) = json.get("v") {
            let v = v
                .as_u64()
                .ok_or_else(|| WireError::bad_request("\"v\" must be a non-negative integer"))?;
            if v > PROTOCOL_VERSION {
                return Err(WireError::bad_request(format!(
                    "protocol version {v} not supported (this server speaks {PROTOCOL_VERSION})"
                )));
            }
        }
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::bad_request("missing \"type\""))?;
        match kind {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "reorder" => {
                let program = decode_program(&json, "reorder")?;
                let config = decode_config(&json)?;
                let budget_ms = decode_budget(&json)?;
                Ok(Request::Reorder {
                    program,
                    config,
                    budget_ms,
                })
            }
            "calibrate" => {
                let program = decode_program(&json, "calibrate")?;
                let config = decode_config(&json)?;
                let budget_ms = decode_budget(&json)?;
                let rounds = match json.get("rounds") {
                    None => DEFAULT_CALIBRATE_ROUNDS,
                    Some(v) => match v.as_u64() {
                        Some(n) if n >= 1 => n as usize,
                        _ => return Err(WireError::bad_request("rounds must be an integer >= 1")),
                    },
                };
                Ok(Request::Calibrate {
                    program,
                    config,
                    rounds,
                    budget_ms,
                })
            }
            other => Err(WireError::bad_request(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

/// Appends the optional `config` and `budget_ms` members shared by the
/// `reorder` and `calibrate` encodings.
fn push_config_and_budget(
    members: &mut Vec<(String, Json)>,
    config: &WireConfig,
    budget_ms: &Option<u64>,
) {
    if *config != WireConfig::default() {
        members.push((
            "config".to_string(),
            Json::Obj(vec![
                ("jobs".to_string(), Json::Num(config.jobs as f64)),
                ("specialize".to_string(), Json::Bool(config.specialize)),
                ("goals".to_string(), Json::Bool(config.goals)),
                ("clauses".to_string(), Json::Bool(config.clauses)),
                ("markov".to_string(), Json::Bool(config.markov)),
            ]),
        ));
    }
    if let Some(ms) = budget_ms {
        members.push(("budget_ms".to_string(), Json::Num(*ms as f64)));
    }
}

fn decode_program(json: &Json, kind: &str) -> Result<String, WireError> {
    json.get("program")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::bad_request(format!("{kind} needs a \"program\" string")))
}

fn decode_config(json: &Json) -> Result<WireConfig, WireError> {
    let mut config = WireConfig::default();
    if let Some(c) = json.get("config") {
        let flag = |key: &str, default: bool| -> Result<bool, WireError> {
            match c.get(key) {
                None => Ok(default),
                Some(v) => v.as_bool().ok_or_else(|| {
                    WireError::bad_request(format!("config.{key} must be a boolean"))
                }),
            }
        };
        config.specialize = flag("specialize", config.specialize)?;
        config.goals = flag("goals", config.goals)?;
        config.clauses = flag("clauses", config.clauses)?;
        config.markov = flag("markov", config.markov)?;
        if let Some(jobs) = c.get("jobs") {
            config.jobs = jobs.as_u64().ok_or_else(|| {
                WireError::bad_request("config.jobs must be a non-negative integer")
            })? as usize;
        }
    }
    Ok(config)
}

fn decode_budget(json: &Json) -> Result<Option<u64>, WireError> {
    match json.get("budget_ms") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::bad_request("budget_ms must be a non-negative integer")),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Machine-readable failure classes (the `"code"` field of error
/// replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame or JSON was malformed.
    BadRequest,
    /// The submitted program does not parse (`line`/`col` are set).
    Parse,
    /// The per-request time budget expired before the pipeline finished.
    /// The computation keeps running and lands in the cache; retry.
    Timeout,
    /// The accept queue was full; the request was shed unprocessed.
    Overload,
    /// The pipeline panicked on this input (isolated; the daemon keeps
    /// serving).
    Panic,
    /// The frame exceeded the size limit.
    TooLarge,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Parse => "parse",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overload => "overload",
            ErrorCode::Panic => "panic",
            ErrorCode::TooLarge => "too_large",
        }
    }

    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "parse" => ErrorCode::Parse,
            "timeout" => ErrorCode::Timeout,
            "overload" => ErrorCode::Overload,
            "panic" => ErrorCode::Panic,
            "too_large" => ErrorCode::TooLarge,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: the error code plus a human message, and a
/// source position when the code is [`ErrorCode::Parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: ErrorCode,
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl WireError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            line: 0,
            col: 0,
        }
    }

    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError::new(ErrorCode::BadRequest, message)
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The reordered program. `cached` is true only for a straight cache
    /// hit; a request coalesced onto an in-flight computation reports
    /// `cached: false`. `pipeline` carries the producing run's
    /// `RunStats` JSON (shared encoder with `reorder-prolog
    /// --timings-json`).
    Reordered {
        program: String,
        cached: bool,
        elapsed_us: u64,
        pipeline: Json,
    },
    /// A calibration run's converged emission plus the loop's summary.
    /// `invalidated` counts the stale cache entries this calibration
    /// evicted (the uncalibrated result and any prior calibrated result
    /// for the same program).
    Calibrated {
        program: String,
        cached: bool,
        elapsed_us: u64,
        rounds: u64,
        converged: bool,
        /// Predicates the loop pinned to their original definition,
        /// `name/arity`.
        pinned: Vec<String>,
        invalidated: u64,
        pipeline: Json,
    },
    Error(WireError),
    Stats(Json),
    Pong,
    ShuttingDown,
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let v = ("v".to_string(), Json::Num(PROTOCOL_VERSION as f64));
        let tag = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
        let json = match self {
            Response::Reordered {
                program,
                cached,
                elapsed_us,
                pipeline,
            } => Json::Obj(vec![
                v,
                tag("result"),
                ("cached".to_string(), Json::Bool(*cached)),
                ("elapsed_us".to_string(), Json::Num(*elapsed_us as f64)),
                ("pipeline".to_string(), pipeline.clone()),
                ("program".to_string(), Json::Str(program.clone())),
            ]),
            Response::Calibrated {
                program,
                cached,
                elapsed_us,
                rounds,
                converged,
                pinned,
                invalidated,
                pipeline,
            } => Json::Obj(vec![
                v,
                tag("calibrated"),
                ("cached".to_string(), Json::Bool(*cached)),
                ("elapsed_us".to_string(), Json::Num(*elapsed_us as f64)),
                ("rounds".to_string(), Json::Num(*rounds as f64)),
                ("converged".to_string(), Json::Bool(*converged)),
                (
                    "pinned".to_string(),
                    Json::Arr(pinned.iter().map(|p| Json::Str(p.clone())).collect()),
                ),
                ("invalidated".to_string(), Json::Num(*invalidated as f64)),
                ("pipeline".to_string(), pipeline.clone()),
                ("program".to_string(), Json::Str(program.clone())),
            ]),
            Response::Error(err) => {
                let mut members = vec![
                    v,
                    tag("error"),
                    ("code".to_string(), Json::Str(err.code.as_str().to_string())),
                    ("message".to_string(), Json::Str(err.message.clone())),
                ];
                if err.code == ErrorCode::Parse {
                    members.push(("line".to_string(), Json::Num(err.line as f64)));
                    members.push(("col".to_string(), Json::Num(err.col as f64)));
                }
                Json::Obj(members)
            }
            Response::Stats(body) => {
                let mut members = vec![v, tag("stats")];
                if let Json::Obj(extra) = body {
                    members.extend(extra.clone());
                }
                Json::Obj(members)
            }
            Response::Pong => Json::Obj(vec![v, tag("pong")]),
            Response::ShuttingDown => Json::Obj(vec![v, tag("shutting_down")]),
        };
        json.encode().into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let json = Json::parse(text)?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"type\"".to_string())?;
        match kind {
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "stats" => Ok(Response::Stats(json.clone())),
            "calibrated" => {
                let pinned = match json.get("pinned") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .map(str::to_string)
                                .ok_or("pinned entries must be strings")
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => Vec::new(),
                };
                Ok(Response::Calibrated {
                    program: json
                        .get("program")
                        .and_then(Json::as_str)
                        .ok_or("calibrated without program")?
                        .to_string(),
                    cached: json.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    elapsed_us: json.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0),
                    rounds: json.get("rounds").and_then(Json::as_u64).unwrap_or(0),
                    converged: json
                        .get("converged")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    pinned,
                    invalidated: json.get("invalidated").and_then(Json::as_u64).unwrap_or(0),
                    pipeline: json.get("pipeline").cloned().unwrap_or(Json::Null),
                })
            }
            "result" => Ok(Response::Reordered {
                program: json
                    .get("program")
                    .and_then(Json::as_str)
                    .ok_or("result without program")?
                    .to_string(),
                cached: json.get("cached").and_then(Json::as_bool).unwrap_or(false),
                elapsed_us: json.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0),
                pipeline: json.get("pipeline").cloned().unwrap_or(Json::Null),
            }),
            "error" => {
                let code = json
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_wire)
                    .ok_or("error without known code")?;
                Ok(Response::Error(WireError {
                    code,
                    message: json
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    line: json.get("line").and_then(Json::as_u64).unwrap_or(0) as u32,
                    col: json.get("col").and_then(Json::as_u64).unwrap_or(0) as u32,
                }))
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed.encode(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t nul\u{1} λ 🦀";
        let encoded = Json::Str(original.to_string()).encode();
        let back = Json::parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // \uXXXX forms parse too, including surrogate pairs.
        let parsed = Json::parse("\"\\u00e9\\ud83e\\udd80\"").unwrap();
        assert_eq!(parsed.as_str(), Some("é🦀"));
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for text in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\"}",
            "tru",
            "01x",
            "nan",
            "{\"a\":1}garbage",
            "\"\\ud800\"",
            "\"\\q\"",
            &("[".repeat(200) + &"]".repeat(200)),
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let mut reader = &buf[..];
        let err = read_frame(&mut reader, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Reorder {
                program: "p(1).\n".to_string(),
                config: WireConfig::default(),
                budget_ms: None,
            },
            Request::Reorder {
                program: "p(1).".to_string(),
                config: WireConfig {
                    jobs: 2,
                    specialize: false,
                    goals: true,
                    clauses: false,
                    markov: true,
                },
                budget_ms: Some(250),
            },
            Request::Calibrate {
                program: "p(1).\n".to_string(),
                config: WireConfig::default(),
                rounds: 3,
                budget_ms: None,
            },
            Request::Calibrate {
                program: "p(1).".to_string(),
                config: WireConfig {
                    markov: true,
                    ..WireConfig::default()
                },
                rounds: 1,
                budget_ms: Some(5000),
            },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn calibrate_defaults_rounds_and_rejects_zero() {
        let decoded = Request::decode(b"{\"type\":\"calibrate\",\"program\":\"p.\"}").unwrap();
        assert_eq!(
            decoded,
            Request::Calibrate {
                program: "p.".to_string(),
                config: WireConfig::default(),
                rounds: DEFAULT_CALIBRATE_ROUNDS,
                budget_ms: None,
            }
        );
        for payload in [
            &b"{\"type\":\"calibrate\",\"program\":\"p.\",\"rounds\":0}"[..],
            b"{\"type\":\"calibrate\",\"program\":\"p.\",\"rounds\":1.5}",
        ] {
            let err = Request::decode(payload).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.contains("rounds"), "{:?}", err.message);
        }
        let err = Request::decode(b"{\"type\":\"calibrate\"}").unwrap_err();
        assert!(err.message.contains("program"), "{:?}", err.message);
    }

    #[test]
    fn request_decoding_rejects_bad_payloads() {
        for (payload, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (b"not json", "JSON"),
            (b"{}", "type"),
            (b"{\"type\":\"nope\"}", "unknown request type"),
            (b"{\"type\":\"reorder\"}", "program"),
            (b"{\"v\":99,\"type\":\"ping\"}", "version"),
            (
                b"{\"type\":\"reorder\",\"program\":\"p.\",\"budget_ms\":-1}",
                "budget_ms",
            ),
            (
                b"{\"type\":\"reorder\",\"program\":\"p.\",\"config\":{\"goals\":3}}",
                "boolean",
            ),
        ] {
            let err = Request::decode(payload).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(
                err.message.contains(needle),
                "{:?} should mention {needle:?}",
                err.message
            );
        }
        // Older/equal versions are accepted.
        assert_eq!(
            Request::decode(b"{\"v\":1,\"type\":\"ping\"}").unwrap(),
            Request::Ping
        );
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Reordered {
                program: "p(1).\n".to_string(),
                cached: true,
                elapsed_us: 42,
                pipeline: Json::Obj(vec![("tasks".to_string(), Json::Num(3.0))]),
            },
            Response::Error(WireError {
                code: ErrorCode::Parse,
                message: "parse error".to_string(),
                line: 3,
                col: 7,
            }),
            Response::Calibrated {
                program: "p(1).\n".to_string(),
                cached: false,
                elapsed_us: 9000,
                rounds: 3,
                converged: true,
                pinned: vec!["dept_salary/2".to_string()],
                invalidated: 2,
                pipeline: Json::Obj(vec![("tasks".to_string(), Json::Num(3.0))]),
            },
            Response::Error(WireError::new(ErrorCode::Overload, "queue full")),
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn cache_key_part_tracks_output_affecting_knobs_only() {
        let a = WireConfig::default();
        let b = WireConfig {
            jobs: 8,
            ..WireConfig::default()
        };
        assert_eq!(a.cache_key_part(), b.cache_key_part(), "jobs excluded");
        let c = WireConfig {
            markov: true,
            ..WireConfig::default()
        };
        assert_ne!(a.cache_key_part(), c.cache_key_part());
    }

    #[test]
    fn a_legacy_engine_member_is_ignored() {
        // Older clients may still send `config.engine`; it is ignored
        // like any unknown member and selects nothing.
        for kind in ["reorder", "calibrate"] {
            let payload = format!(
                "{{\"type\":\"{kind}\",\"program\":\"p.\",\"config\":{{\"engine\":\"compiled\"}}}}"
            );
            match Request::decode(payload.as_bytes()).unwrap() {
                Request::Reorder { config, .. } | Request::Calibrate { config, .. } => {
                    assert_eq!(config, WireConfig::default(), "{kind}")
                }
                other => panic!("{kind} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn calibrated_cache_key_incorporates_the_override_set() {
        let config = WireConfig::default();
        // Same program + knobs, calibrated vs not: must never collide.
        assert_ne!(
            config.cache_key_part(),
            config.cache_key_part_calibrated("fp1")
        );
        // Two different override sets are distinct keys too.
        assert_ne!(
            config.cache_key_part_calibrated("fp1"),
            config.cache_key_part_calibrated("fp2")
        );
        // The knobs still participate under calibration.
        let markov = WireConfig {
            markov: true,
            ..WireConfig::default()
        };
        assert_ne!(
            config.cache_key_part_calibrated("fp1"),
            markov.cache_key_part_calibrated("fp1")
        );
    }
}
