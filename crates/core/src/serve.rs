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
//! buffered. Workers share the engine's cache, so identical concurrent
//! requests coalesce onto one search. The cache lock covers only a
//! lookup, and a hit copies no kernel: the response is rendered straight
//! from the cache's shared entry, whose JSON-escaped C is built once, by
//! the first `emit:"c"` response for that entry.

use crate::cache::TuneCache;
use crate::measure::MeasureConfig;
use crate::pipeline::{cycles_source, Options};
use crate::tuner::TuneStats;
use crate::{apps, Target};
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Largest accepted operand size: the generator is fully unrolled, so
/// cold searches beyond this are minutes, not milliseconds.
pub const MAX_N: usize = 64;

/// Longest accepted request line in bytes, newline excluded. Requests are
/// a few dozen bytes; [`serve_lines`] answers a longer line with an error
/// and skips it without buffering it.
pub const MAX_LINE: usize = 64 * 1024;

/// A scalar JSON value (requests are flat objects of scalars).
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Scalar {
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

/// Parse one flat JSON object of scalar values. Rejects nesting,
/// duplicate-insensitive (last key wins), tolerant of whitespace.
fn parse_flat_object(s: &str) -> Result<Vec<(String, Scalar)>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err("expected '\"'".into());
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let c = *b.get(*i).ok_or("unterminated string")?;
            *i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
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
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // multi-byte UTF-8: copy the whole char
                    let rest = &s[*i - 1..];
                    let ch = rest.chars().next().ok_or("bad utf8")?;
                    out.push(ch);
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
                let n: f64 =
                    s[start..i].parse().map_err(|_| format!("key {key:?}: unparsable value"))?;
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
            Some(Scalar::Str(s)) => s.clone(),
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

    fn program(&self) -> Result<slingen_ir::Program, String> {
        apps::by_name(&self.app, self.n, self.k)
            .ok_or_else(|| format!("unknown app `{}`", self.app))
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

/// The serve engine: one shared cache, stateless per-request options.
/// Cheap to share by reference across worker threads.
pub struct Engine {
    cache: TuneCache,
    default_target: Target,
    /// Measured-autotuning config applied to every request (model-only
    /// by default). Hardware mode degrades per-request to the model
    /// when no compiler works, exactly like `generate()`.
    measure: MeasureConfig,
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

    /// Handle one request line; always returns exactly one response
    /// line (errors are `{"id":...,"ok":false,"error":"..."}`).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_tagged(line).0
    }

    /// [`Engine::handle_line`] plus whether the request succeeded.
    pub fn handle_line_tagged(&self, line: &str) -> (String, bool) {
        let req = match Request::parse(line, self.default_target) {
            Ok(r) => r,
            Err((id, e)) => {
                return (
                    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape_json(&e)),
                    false,
                )
            }
        };
        match self.handle(&req) {
            Ok(resp) => (resp, true),
            Err(e) => (
                format!("{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}", req.id, escape_json(&e)),
                false,
            ),
        }
    }

    /// Generate (or replay) the kernel for one parsed request and render
    /// its response line. The response is read straight from the cache's
    /// shared entry (spec, report, escaped C) into one allocation; no
    /// kernel is copied.
    pub fn handle(&self, req: &Request) -> Result<String, String> {
        let program = req.program()?;
        let options = Options {
            cache: self.cache.clone(),
            measure: self.measure.clone(),
            ..Options::for_target(req.target)
        };
        let tuned = crate::tuner::tune(&program, &options).map_err(|e| e.to_string())?;
        let win = &*tuned.win;
        let source = cycles_source(&win.report);
        match source {
            "measured" => self.served_measured.fetch_add(1, Ordering::Relaxed),
            _ => self.served_model.fetch_add(1, Ordering::Relaxed),
        };
        let c = (req.emit == Emit::Code).then(|| win.c_json());
        // The fixed fields, the winner spec and two numbers take well
        // under 256 bytes; only the echoed id and app and the C vary.
        let len = 256 + req.id.len() + req.app.len() + c.map_or(0, str::len);
        let mut resp = String::with_capacity(len);
        let _ = write!(
            resp,
            "{{\"id\":{},\"ok\":true,\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"cache\":\"{}\",\
             \"cycles_source\":\"{source}\",\
             \"winner\":\"{}\",\"cycles\":{:.1},\"flops_per_cycle\":{:.3}",
            req.id,
            req.app,
            req.n,
            req.target,
            cache_marker(&tuned.stats),
            win.spec,
            win.report.cycles,
            win.report.flops_per_cycle(),
        );
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
    /// lines included.
    pub errors: usize,
}

/// Pump line-delimited requests from `input` through a pool of `workers`
/// threads sharing `engine`, writing one response line per request to
/// `output` *in completion order* (correlate by `id`). A line longer than
/// [`MAX_LINE`] bytes, or one that is not UTF-8, gets an error response
/// from the reader itself and is never handed to a worker. Returns
/// totals.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &Engine,
    mut input: R,
    output: W,
    workers: usize,
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
    let reject = |error: &str| {
        respond(&format!("{{\"id\":null,\"ok\":false,\"error\":\"{error}\"}}"), false)
    };
    let mut read_err = None;
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let line = match rx.lock().unwrap().recv() {
                    Ok(l) => l,
                    Err(_) => break,
                };
                let (resp, ok) = engine.handle_line_tagged(&line);
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
        ] {
            assert!(Request::parse(line, Target::Avx2).is_err(), "{what}: {line}");
        }
    }

    #[test]
    fn unknown_app_is_a_response_error_with_echoed_id() {
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let (resp, ok) = engine.handle_line_tagged(r#"{"id":3,"app":"gemm","n":4}"#);
        assert!(!ok);
        assert!(resp.contains("\"id\":3"), "{resp}");
        assert!(resp.contains("unknown app"), "{resp}");
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
            crate::generate(&apps::potrf(16), &crate::Options::default()).unwrap().c_code,
        ]);
        for case in &cases {
            assert_eq!(escape_json(case), escape_json_charwise(case), "{case:?}");
        }
    }
}
