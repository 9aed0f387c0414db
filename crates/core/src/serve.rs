//! Kernel-generation as a service: the front-end behind `slingen-serve`.
//!
//! The [`Engine`] turns one shared [`TuneCache`] into a
//! concurrent request handler: clients submit line-delimited JSON
//! requests naming a paper app, a size, and a target, and receive one
//! JSON response line each — the emitted C (or a summary) plus a cache
//! marker saying how the request was served (`miss` = a search ran,
//! `hit` = in-memory replay, `persisted` = replayed from a cache file,
//! `coalesced` = piggybacked on a concurrent identical request) and a
//! `cycles_source` marker saying which signal ranked the winner
//! (`model` = the scheduler's estimate, `measured` = stage-two hardware
//! timing; see [`crate::measure`]). The JSON codec is hand-rolled —
//! this workspace is offline, no serde.
//!
//! Request schema (one object per line; unknown keys are ignored):
//!
//! ```json
//! {"id": 1, "app": "potrf", "n": 8, "target": "avx2", "emit": "c"}
//! ```
//!
//! * `app` — `potrf | trsyl | trlya | trtri | kf | gpr | l1a`
//! * `n` — operand size, 1..=64
//! * `k` — observation count, kf only (defaults to `n`)
//! * `target` — `scalar | sse2 | avx2 | avx2fma` (default `avx2`)
//! * `emit` — `c` (default: full C in the response) or `summary`
//! * `id` — any scalar, echoed back verbatim
//!
//! [`serve_lines`] runs a worker pool over a line stream: N workers pull
//! requests off a channel and write completed responses (in completion
//! order — correlate by `id`) through a shared writer. A line longer than
//! [`MAX_LINE`] bytes is answered with an error and skipped without being
//! buffered, and a request whose handling panics is answered with an
//! error while its worker serves on. Workers share the engine's cache, so
//! identical concurrent requests coalesce onto one search.
//!
//! A hit rebuilds nothing. The engine memoizes each distinct request's
//! cache key, so a repeated request is a memo lookup plus one cache
//! lookup: it builds no program, no options and no key. The memo and
//! cache locks each cover only a lookup, and a hit copies no kernel: the
//! response is rendered straight from the cache's shared entry, whose
//! summary fields are rendered once when it is stored and whose
//! JSON-escaped C is built once, by the first `emit:"c"` response for
//! that entry.

use crate::apps::App;
use crate::cache::TuneCache;
use crate::measure::MeasureConfig;
use crate::pipeline::{cycles_source, Options};
use crate::tuner::{cache_key, tune_keyed, TuneStats};
use crate::Target;
use slingen_ir::Program;
use std::any::Any;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};

/// Largest accepted operand size: the generator is fully unrolled, so
/// cold searches beyond this are minutes, not milliseconds.
pub const MAX_N: usize = 64;

/// Longest accepted request line in bytes, newline excluded. Requests are
/// a few dozen bytes; [`serve_lines`] answers a longer line with an error
/// and skips it without buffering it.
pub const MAX_LINE: usize = 64 * 1024;

/// A scalar JSON value (requests are flat objects of scalars). A string
/// borrows from the request line unless it contains an escape.
#[derive(Debug, Clone, PartialEq)]
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
    Null,
}

impl Scalar<'_> {
    /// Render back as a JSON token (used to echo `id`).
    fn render(&self) -> String {
        match self {
            Scalar::Str(s) => format!("\"{}\"", escape_json(s)),
            Scalar::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Scalar::Bool(b) => b.to_string(),
            Scalar::Null => "null".into(),
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            Scalar::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 1e9 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON string literal: `"`, `\\`,
/// `\n`, `\r` and `\t` get their short escapes, other bytes below 0x20
/// become `\u00XX`, and everything else is copied unchanged.
pub fn escape_json(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(s.len() + s.len() / 16 + 8);
    let mut clean = 0;
    // Every byte that needs escaping is ASCII, so each clean run ends on
    // a char boundary and is copied with one `push_str`.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        clean = i + 1;
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[clean..]);
    out
}

/// One parsed key-value pair; the key borrows like a string value.
type Field<'a> = (Cow<'a, str>, Scalar<'a>);

/// Parse one flat JSON object of scalar values. Rejects nesting,
/// duplicate-insensitive (last key wins), tolerant of whitespace. Keys
/// and string values borrow from `s`; only a string that contains an
/// escape is copied.
fn parse_flat_object(s: &str) -> Result<Vec<Field<'_>>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<Cow<'_, str>, String> {
        if b.get(*i) != Some(&b'"') {
            return Err("expected '\"'".into());
        }
        *i += 1;
        let start = *i;
        // The unescaped prefix is borrowed; the first escape switches to
        // an owned copy. Every byte the loop stops at is ASCII, so each
        // slice ends on a char boundary.
        let mut owned: Option<String> = None;
        loop {
            let c = *b.get(*i).ok_or("unterminated string")?;
            *i += 1;
            match c {
                b'"' => {
                    return Ok(match owned {
                        Some(out) => Cow::Owned(out),
                        None => Cow::Borrowed(&s[start..*i - 1]),
                    })
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(|| s[start..*i - 1].to_string());
                    let e = *b.get(*i).ok_or("unterminated escape")?;
                    *i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = s.get(*i..*i + 4).ok_or("truncated \\u escape")?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            *i += 4;
                            out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("unknown escape".into()),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                c if c < 0x80 => {
                    if let Some(out) = &mut owned {
                        out.push(c as char);
                    }
                }
                _ => {
                    // multi-byte UTF-8: step over the whole char
                    let ch = s[*i - 1..].chars().next().ok_or("bad utf8")?;
                    if let Some(out) = &mut owned {
                        out.push(ch);
                    }
                    *i += ch.len_utf8() - 1;
                }
            }
        }
    };
    skip_ws(&mut i);
    if b.get(i) != Some(&b'{') {
        return Err("expected a JSON object".into());
    }
    i += 1;
    let mut fields = Vec::new();
    skip_ws(&mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = match b.get(i) {
            Some(b'"') => Scalar::Str(parse_string(&mut i)?),
            Some(b't') if s[i..].starts_with("true") => {
                i += 4;
                Scalar::Bool(true)
            }
            Some(b'f') if s[i..].starts_with("false") => {
                i += 5;
                Scalar::Bool(false)
            }
            Some(b'n') if s[i..].starts_with("null") => {
                i += 4;
                Scalar::Null
            }
            Some(b'{') | Some(b'[') => {
                return Err(format!("key {key:?}: nested values are not supported"))
            }
            Some(_) => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                // JSON has no infinities: an overflowing literal such as
                // `1e999` would echo back as `inf`, which no client parses.
                let n = s[start..i]
                    .parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .ok_or_else(|| format!("key {key:?}: unparsable value"))?;
                Scalar::Num(n)
            }
            None => return Err("truncated object".into()),
        };
        fields.push((key, val));
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                skip_ws(&mut i);
                if i != b.len() {
                    return Err("trailing garbage after object".into());
                }
                return Ok(fields);
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

/// What the response should carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The full emitted C in the `"c"` field.
    Code,
    /// Winner spec and modeled performance only.
    Summary,
}

/// One parsed generation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed back verbatim (JSON rendering of whatever the client sent).
    pub id: String,
    /// Paper app name.
    pub app: String,
    /// Operand size.
    pub n: usize,
    /// kf observation count (defaults to `n`).
    pub k: Option<usize>,
    /// Instruction-set target.
    pub target: Target,
    /// Response payload selection.
    pub emit: Emit,
}

impl Request {
    /// Parse one request line. `default_target` fills in a missing
    /// `target` field.
    pub fn parse(line: &str, default_target: Target) -> Result<Request, (String, String)> {
        let fields = parse_flat_object(line).map_err(|e| ("null".to_string(), e))?;
        let id = fields
            .iter()
            .find(|(k, _)| k == "id")
            .map(|(_, v)| v.render())
            .unwrap_or_else(|| "null".into());
        let err = |msg: &str| (id.clone(), msg.to_string());
        let get = |key: &str| fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v);
        let app = match get("app") {
            Some(Scalar::Str(s)) => s.to_string(),
            _ => return Err(err("missing or non-string `app`")),
        };
        let n = match get("n").and_then(Scalar::as_usize) {
            Some(n) if (1..=MAX_N).contains(&n) => n,
            Some(_) => return Err(err(&format!("`n` out of range (1..={MAX_N})"))),
            None => return Err(err("missing or non-integer `n`")),
        };
        let k = match get("k") {
            None | Some(Scalar::Null) => None,
            Some(v) => match v.as_usize() {
                Some(k) if (1..=MAX_N).contains(&k) => Some(k),
                _ => return Err(err(&format!("`k` out of range (1..={MAX_N})"))),
            },
        };
        let target = match get("target") {
            None | Some(Scalar::Null) => default_target,
            Some(Scalar::Str(s)) => match Target::parse(s) {
                Some(t) => t,
                None => return Err(err(&format!("unknown target `{s}`"))),
            },
            Some(_) => return Err(err("non-string `target`")),
        };
        let emit = match get("emit") {
            None | Some(Scalar::Null) => Emit::Code,
            Some(Scalar::Str(s)) if s == "c" => Emit::Code,
            Some(Scalar::Str(s)) if s == "summary" => Emit::Summary,
            _ => return Err(err("`emit` must be \"c\" or \"summary\"")),
        };
        Ok(Request { id, app, n, k, target, emit })
    }
}

/// How a response was served, from its tuning stats.
fn cache_marker(stats: &TuneStats) -> &'static str {
    if stats.coalesced {
        "coalesced"
    } else if stats.cache_hit && stats.persisted {
        "persisted"
    } else if stats.cache_hit {
        "hit"
    } else {
        "miss"
    }
}

/// A request with its app resolved and its observation count normalized
/// ([`App::observations`]): the requests one memo entry serves. Every
/// field comes from the validated request domain, so the memo can hold
/// at most one entry per point of that domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    app: &'static str,
    n: usize,
    k: Option<usize>,
    target: Target,
}

/// Why the memo lock cannot be poisoned: its holders only look up, clone
/// or insert an `Arc`.
const MEMO_LOCK: &str = "no code panics while holding the memo lock";

/// The serve engine: one shared cache, plus a memo of each distinct
/// request's cache key. Cheap to share by reference across worker
/// threads.
pub struct Engine {
    cache: TuneCache,
    default_target: Target,
    /// Measured-autotuning config applied to every request (model-only
    /// by default). Hardware mode degrades per-request to the model
    /// when no compiler works, exactly like `generate()`.
    measure: MeasureConfig,
    /// Each distinct request's cache key ([`crate::tuner::cache_key`]),
    /// built on its first request. A key is a pure function of the
    /// request for this engine: the machine and the pass configuration
    /// come from the target and `measure` is fixed at construction, so
    /// no entry is ever stale. An entry whose cache entry was evicted
    /// simply misses in the cache and searches once. The memo holds keys
    /// only, never wins, and is bounded by the request domain.
    memo: RwLock<HashMap<MemoKey, Arc<str>>>,
    /// Responses whose winner was ranked by the model resp. by hardware
    /// timing (surfaced in [`Engine::stats_json`]).
    served_model: AtomicU64,
    served_measured: AtomicU64,
}

impl Engine {
    /// An engine over a (possibly warm-loaded) cache.
    pub fn new(cache: TuneCache, default_target: Target) -> Engine {
        Engine {
            cache,
            default_target,
            measure: MeasureConfig::default(),
            memo: RwLock::default(),
            served_model: AtomicU64::new(0),
            served_measured: AtomicU64::new(0),
        }
    }

    /// Use a non-default measurement configuration (builder style).
    pub fn with_measure(mut self, measure: MeasureConfig) -> Engine {
        self.measure = measure;
        self
    }

    /// The shared cache (e.g. to `save()` it on shutdown).
    pub fn cache(&self) -> &TuneCache {
        &self.cache
    }

    /// The program and options a request for `memo` is tuned with.
    fn inputs(&self, app: &App, memo: &MemoKey) -> (Program, Options) {
        let options = Options {
            cache: self.cache.clone(),
            measure: self.measure.clone(),
            ..Options::for_target(memo.target)
        };
        (app.program(memo.n, memo.k), options)
    }

    /// The cache key of a request for `memo`: from the memo, or built and
    /// stored by the first such request, which also gets the program and
    /// options it built the key from. Neither memo lock is held on return.
    fn memo_key(&self, app: &App, memo: MemoKey) -> (Arc<str>, Option<(Program, Options)>) {
        let known = self.memo.read().expect(MEMO_LOCK).get(&memo).cloned();
        if let Some(key) = known {
            return (key, None);
        }
        let (program, options) = self.inputs(app, &memo);
        let key: Arc<str> = cache_key(&program, &options).into();
        let key = self.memo.write().expect(MEMO_LOCK).entry(memo).or_insert(key).clone();
        (key, Some((program, options)))
    }

    /// Handle one request line; always returns exactly one response
    /// line (errors are `{"id":...,"ok":false,"error":"..."}`).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_tagged(line).0
    }

    /// [`Engine::handle_line`] plus whether the request succeeded.
    pub fn handle_line_tagged(&self, line: &str) -> (String, bool) {
        let req = match Request::parse(line, self.default_target) {
            Ok(r) => r,
            Err((id, e)) => return (error_line(&id, &e), false),
        };
        match self.handle(&req) {
            Ok(resp) => (resp, true),
            Err(e) => (error_line(&req.id, &e), false),
        }
    }

    /// Generate (or replay) the kernel for one parsed request and render
    /// its response line. The app is resolved from the one app table in
    /// [`crate::apps`], and the cache key comes from the engine's
    /// memo: only the first request of its kind builds it. A hit builds no
    /// program, no options and no key; only a request that owns a search
    /// or re-materializes a loaded entry builds the program and options.
    /// The response is read straight from the cache's shared entry (its
    /// pre-rendered summary fields and escaped C) into one allocation; no
    /// kernel is copied and no float is formatted.
    pub fn handle(&self, req: &Request) -> Result<String, String> {
        let app = App::named(&req.app).ok_or_else(|| format!("unknown app `{}`", req.app))?;
        let memo = MemoKey {
            app: app.name,
            n: req.n,
            k: app.observations(req.n, req.k),
            target: req.target,
        };
        let (key, built) = self.memo_key(app, memo);
        let tuned =
            tune_keyed(&self.cache, &key, || built.unwrap_or_else(|| self.inputs(app, &memo)))
                .map_err(|e| e.to_string())?;
        let win = &*tuned.win;
        match cycles_source(&win.report) {
            "measured" => self.served_measured.fetch_add(1, Ordering::Relaxed),
            _ => self.served_model.fetch_add(1, Ordering::Relaxed),
        };
        let summary = win.summary_json();
        let c = (req.emit == Emit::Code).then(|| win.c_json());
        // The fixed fields, the size, the target and the cache marker take
        // well under 128 bytes; the echoed id and app, the summary and the
        // C vary.
        let len = 128 + req.id.len() + req.app.len() + summary.len() + c.map_or(0, str::len);
        let mut resp = String::with_capacity(len);
        let _ = write!(
            resp,
            "{{\"id\":{},\"ok\":true,\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"cache\":\"{}\",",
            req.id,
            req.app,
            req.n,
            req.target,
            cache_marker(&tuned.stats),
        );
        resp.push_str(summary);
        if let Some(c) = c {
            resp.push_str(",\"c\":\"");
            resp.push_str(c);
            resp.push('"');
        }
        resp.push('}');
        Ok(resp)
    }

    /// One-line JSON cache statistics (written to stderr by the
    /// binary on shutdown; `searches` is the cold-search count).
    pub fn stats_json(&self) -> String {
        let t = self.cache.totals();
        format!(
            "{{\"cache_entries\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"coalesced\": {}, \"searches\": {}, \"served_model\": {}, \
             \"served_measured\": {}}}",
            t.entries,
            t.hits,
            t.misses,
            t.inserts,
            t.coalesced,
            t.searches,
            self.served_model.load(Ordering::Relaxed),
            self.served_measured.load(Ordering::Relaxed)
        )
    }
}

/// Totals of one [`serve_lines`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines handled (blank lines are skipped).
    pub requests: usize,
    /// Requests that produced an error response, over-long and non-UTF-8
    /// lines included. `slingen-serve`'s socket mode adds connections
    /// that failed to accept.
    pub errors: usize,
}

/// The error response `{"id":<id>,"ok":false,"error":"<error>"}`; `id`
/// is already a rendered JSON scalar.
fn error_line(id: &str, error: &str) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape_json(error))
}

/// The error response of a request whose handling panicked: the id of
/// its line (`null` when the line does not parse that far) and the
/// panic's message.
fn panic_response(line: &str, panic: &(dyn Any + Send)) -> String {
    let message = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "no message",
    };
    // The parse itself may be what panicked.
    let id = catch_unwind(|| match Request::parse(line, Target::default()) {
        Ok(req) => req.id,
        Err((id, _)) => id,
    })
    .unwrap_or_else(|_| "null".into());
    error_line(&id, &format!("request panicked: {message}"))
}

/// Pump line-delimited requests from `input` through a pool of `workers`
/// threads sharing `engine`, writing one response line per request to
/// `output` *in completion order* (correlate by `id`). A line longer than
/// [`MAX_LINE`] bytes, or one that is not UTF-8, gets an error response
/// from the reader itself and is never handed to a worker. A request
/// whose handling panics gets an error response and counts as an error;
/// its worker goes on serving. Returns totals.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &Engine,
    input: R,
    output: W,
    workers: usize,
) -> std::io::Result<ServeSummary> {
    pump_lines(input, output, workers, |line| engine.handle_line_tagged(line))
}

/// [`serve_lines`] with any request handler in place of the engine's:
/// `handle` maps a request line to its response and whether it
/// succeeded.
fn pump_lines<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    workers: usize,
    handle: impl Fn(&str) -> (String, bool) + Sync,
) -> std::io::Result<ServeSummary> {
    let (tx, rx) = mpsc::channel::<String>();
    let rx = Mutex::new(rx);
    let out = Mutex::new(output);
    let requests = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let respond = |resp: &str, ok: bool| {
        requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut out = out.lock().expect("no thread panics while writing a response");
        let _ = writeln!(out, "{resp}");
        let _ = out.flush();
    };
    // Lines the reader rejects before any parse: no id to echo.
    let reject = |error: &str| respond(&error_line("null", error), false);
    let mut read_err = None;
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let line = match rx.lock().expect("no thread panics while receiving").recv() {
                    Ok(l) => l,
                    Err(_) => break,
                };
                // No lock is held across `handle`: the channel and output
                // locks are taken around it, and the engine releases its
                // memo and cache locks before any search or rendering, so
                // a panic poisons none of them. An owner's unwinding ticket
                // wakes the requests coalesced on it with an error.
                let (resp, ok) = catch_unwind(AssertUnwindSafe(|| handle(&line)))
                    .unwrap_or_else(|panic| (panic_response(&line, &*panic), false));
                respond(&resp, ok);
            });
        }
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // One byte past the cap tells an over-long line from one that
            // is exactly `MAX_LINE` bytes plus its newline.
            let read = (&mut input).take(MAX_LINE as u64 + 1).read_until(b'\n', &mut buf);
            match read {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_LINE {
                if let Err(e) = input.skip_until(b'\n') {
                    read_err = Some(e);
                    break;
                }
                reject(&format!("request line exceeds {MAX_LINE} bytes"));
                continue;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                reject("request line is not UTF-8");
                continue;
            };
            if !line.trim().is_empty() && tx.send(line.to_string()).is_err() {
                break;
            }
        }
        drop(tx);
    });
    match read_err {
        Some(e) => Err(e),
        None => Ok(ServeSummary {
            requests: requests.load(Ordering::Relaxed),
            errors: errors.load(Ordering::Relaxed),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_a_full_request() {
        let r = Request::parse(
            r#"{"id": "a-1", "app": "kf", "n": 4, "k": 2, "target": "sse2", "emit": "summary"}"#,
            Target::Avx2,
        )
        .unwrap();
        assert_eq!(r.id, "\"a-1\"");
        assert_eq!(r.app, "kf");
        assert_eq!((r.n, r.k), (4, Some(2)));
        assert_eq!(r.target, Target::Sse2);
        assert_eq!(r.emit, Emit::Summary);
    }

    #[test]
    fn defaults_and_numeric_id() {
        let r = Request::parse(r#"{"id":7,"app":"potrf","n":8}"#, Target::Avx2Fma).unwrap();
        assert_eq!(r.id, "7");
        assert_eq!(r.target, Target::Avx2Fma);
        assert_eq!(r.emit, Emit::Code);
        assert_eq!(r.k, None);
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, what) in [
            ("not json", "garbage"),
            ("{\"app\":\"potrf\"}", "missing n"),
            ("{\"app\":\"potrf\",\"n\":0}", "n too small"),
            ("{\"app\":\"potrf\",\"n\":65}", "n too large"),
            ("{\"app\":\"potrf\",\"n\":4,\"target\":\"mmx\"}", "bad target"),
            ("{\"app\":\"potrf\",\"n\":4,\"emit\":\"asm\"}", "bad emit"),
            ("{\"app\":\"potrf\",\"n\":{\"x\":1}}", "nested value"),
            ("{\"n\":4}", "missing app"),
            ("{\"id\":1e999,\"app\":\"potrf\",\"n\":4}", "id overflows to infinity"),
        ] {
            assert!(Request::parse(line, Target::Avx2).is_err(), "{what}: {line}");
        }
    }

    /// Valid request lines, the seeds every fuzzed line starts from.
    const VALID_LINES: [&str; 4] = [
        r#"{"id": "a-1", "app": "kf", "n": 4, "k": 2, "target": "sse2", "emit": "summary"}"#,
        r#"{"id":7,"app":"potrf","n":8}"#,
        r#" { "id" : -1.5e2 , "app" : "tr\u0074ri" , "n" : 64 , "target" : null } "#,
        r#"{"id":true,"app":"l1a","n":12,"emit":"c","x":"é\n"}"#,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Fuzzed request lines — random bytes, truncations and
        /// single-byte mutations of valid lines — never panic the
        /// parsers: each line parses, or is rejected with a reason. An
        /// echoed `id` is always a JSON scalar again, and an accepted `n`
        /// is in range.
        #[test]
        fn fuzzed_request_lines_parse_or_fail_with_a_reason(
            kind in 0u8..3,
            at in any::<usize>(),
            byte in any::<u8>(),
            noise in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let valid = VALID_LINES[at % VALID_LINES.len()].as_bytes();
            let bytes = match kind {
                0 => noise,
                1 => valid[..(at / VALID_LINES.len()) % (valid.len() + 1)].to_vec(),
                _ => {
                    let mut b = valid.to_vec();
                    b[(at / VALID_LINES.len()) % valid.len()] = byte;
                    b
                }
            };
            // `serve_lines` answers a non-UTF-8 line before parsing.
            if let Ok(line) = std::str::from_utf8(&bytes) {
                check_parsers(line);
            }
        }
    }

    /// The parsers' contract on one arbitrary line (see the fuzz test).
    fn check_parsers(line: &str) {
        if let Err(reason) = parse_flat_object(line) {
            assert!(!reason.is_empty(), "{line:?}");
        }
        let id = match Request::parse(line, Target::Avx2) {
            Ok(r) => {
                assert!((1..=MAX_N).contains(&r.n), "{line:?}");
                r.id
            }
            Err((id, reason)) => {
                assert!(!reason.is_empty(), "{line:?}");
                id
            }
        };
        let echoed = format!("{{\"id\":{id}}}");
        assert!(parse_flat_object(&echoed).is_ok(), "{line:?} echoes {id}");
    }

    #[test]
    fn unknown_app_is_a_response_error_with_echoed_id() {
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let (resp, ok) = engine.handle_line_tagged(r#"{"id":3,"app":"gemm","n":4}"#);
        assert!(!ok);
        assert!(resp.contains("\"id\":3"), "{resp}");
        assert!(resp.contains("unknown app"), "{resp}");
    }

    fn memo_len(engine: &Engine) -> usize {
        engine.memo.read().unwrap().len()
    }

    fn cache_marker_of(resp: &str) -> &str {
        let rest = &resp[resp.find("\"cache\":\"").expect("a cache marker") + 9..];
        &rest[..rest.find('"').unwrap()]
    }

    /// Requests that build one program share one memo entry and one cache
    /// entry: a `k` sent to an app without observations is ignored, and a
    /// kf request without `k` is the one with `k = n`. An unknown app
    /// never enters the memo.
    #[test]
    fn equivalent_requests_share_one_memo_and_cache_entry() {
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let served = |line: &str| {
            let (resp, ok) = engine.handle_line_tagged(line);
            assert!(ok, "{line} -> {resp}");
            cache_marker_of(&resp).to_string()
        };
        assert_eq!(served(r#"{"app":"potrf","n":4,"k":3,"emit":"summary"}"#), "miss");
        assert_eq!(served(r#"{"app":"potrf","n":4,"emit":"summary"}"#), "hit");
        assert_eq!((memo_len(&engine), engine.cache().len()), (1, 1));

        assert_eq!(served(r#"{"app":"kf","n":8,"emit":"summary"}"#), "miss");
        assert_eq!(served(r#"{"app":"kf","n":8,"k":8,"emit":"summary"}"#), "hit");
        assert_eq!((memo_len(&engine), engine.cache().len()), (2, 2));

        let (resp, ok) = engine.handle_line_tagged(r#"{"id":9,"app":"gemm","n":4,"k":2}"#);
        assert!(!ok && resp.contains("unknown app"), "{resp}");
        assert_eq!((memo_len(&engine), engine.cache().len()), (2, 2));
        assert_eq!(engine.cache().searches(), 2);
    }

    /// A request whose handling panics is answered with an error that
    /// echoes its id and is counted, and the one worker goes on to answer
    /// the next line of the same input.
    #[test]
    fn a_panicking_request_is_an_error_response_and_the_worker_serves_on() {
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let input = concat!(
            r#"{"id":1,"app":"potrf","n":3,"emit":"summary","boom":true}"#,
            "\n",
            r#"{"id":2,"app":"potrf","n":3,"emit":"summary"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = pump_lines(input.as_bytes(), &mut out, 1, |line| {
            assert!(!line.contains("boom"), "request handler exploded");
            engine.handle_line_tagged(line)
        })
        .unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"id":1,"ok":false,"error":"request panicked: request handler exploded"}"#
        );
        assert!(lines[1].starts_with(r#"{"id":2,"ok":true,"#), "{text}");
    }

    #[test]
    fn escape_round_trips_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    /// The char-by-char escaper `escape_json` replaced, kept as its oracle.
    fn escape_json_charwise(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 8);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_matches_the_charwise_oracle() {
        let mut cases: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        let controls: String = (0u8..0x20).map(char::from).collect();
        cases.extend([
            String::new(),
            "\u{7f}".into(),
            "\"\"quoted\"\"".into(),
            "back\\slash\\\\".into(),
            "é ü ∑ 𝄞 — multi-byte \u{80}\u{7ff}\u{800}\u{ffff}\u{10ffff}".into(),
            format!("x{controls}\u{7f}\"\\é\n𝄞y"),
            crate::generate(&crate::apps::potrf(16), &crate::Options::default()).unwrap().c_code,
        ]);
        for case in &cases {
            assert_eq!(escape_json(case), escape_json_charwise(case), "{case:?}");
        }
    }
}
