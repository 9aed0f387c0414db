//! `serve_hot`: a closed loop of two clients sending requests to a
//! pre-warmed `Engine`, with keys drawn by the seed from a Zipf-ranked
//! request mix.
//!
//! Set-up runs one cold search per distinct key through the engine, saves
//! the cache, loads it into a fresh engine, and replays each loaded entry
//! once; after that every request hits and no search may run. Latency is
//! timed per `Engine::handle_line` call and host-speed corrected (see
//! `host`); the reference is sampled only while both clients are paused,
//! so it never competes with a request. Quantiles and throughput are
//! taken per one-second slice and the median slice is reported. The
//! traced run spends its first half untraced (the overhead base) and its
//! second half splitting each request into parse and handle spans, plus
//! a cache-hit and a render replay outside the timed request.

use crate::host::{HostSpeed, Reference};
use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::{program, setup_seconds, Args, Outcome};
use slingen::serve::{escape_json, Engine, Request};
use slingen::{Options, Target, TuneCache};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Closed-loop clients (one per core of the reference host).
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 3;
/// Length of the time slices the measured window is cut into; latency
/// quantiles and throughput are taken per slice, and the median slice is
/// reported.
const SLICE_S: f64 = 1.0;
/// Requests each client sends between two meetings.
const ROUND: usize = 16;

/// One request class of the traffic mix.
#[derive(Clone, Copy)]
struct Class {
    app: &'static str,
    n: usize,
    target: &'static str,
    code: bool,
}

const fn class(app: &'static str, n: usize, target: &'static str, code: bool) -> Class {
    Class { app, n, target, code }
}

/// The request classes, most popular first. Ranks 1-12 are the keys of
/// the generator tracker's `hot_distinct` serve stream (`crates/bench`:
/// potrf and trtri at n = 3..8, summary, default target), smallest first.
/// Ranks 13-15 ask for the C of the largest of them, potrf8, on each
/// other target; rank 16 is the large tail, potrf64 with its C.
const MIX: [Class; 16] = [
    class("potrf", 3, "avx2", false),
    class("trtri", 3, "avx2", false),
    class("potrf", 4, "avx2", false),
    class("trtri", 4, "avx2", false),
    class("potrf", 5, "avx2", false),
    class("trtri", 5, "avx2", false),
    class("potrf", 6, "avx2", false),
    class("trtri", 6, "avx2", false),
    class("potrf", 7, "avx2", false),
    class("trtri", 7, "avx2", false),
    class("potrf", 8, "avx2", false),
    class("trtri", 8, "avx2", false),
    class("potrf", 8, "sse2", true),
    class("potrf", 8, "avx2fma", true),
    class("potrf", 8, "scalar", true),
    class("potrf", 64, "avx2", true),
];

/// Copies of the most popular class in one deck; rank r gets
/// `round(ZIPF_TOP / r)` copies (Zipf with exponent 1, the usual model of
/// cache request streams). The tail class then carries 2% of requests,
/// so the p99 falls in its middle, and the median falls inside rank 3.
const ZIPF_TOP: f64 = 120.0;

/// Copies of class `k` (0-based rank) in one deck.
fn copies(k: usize) -> usize {
    (ZIPF_TOP / (k + 1) as f64).round() as usize
}

/// Keys with n at most this are the "small" cache-hit class.
const SMALL_N: usize = 8;
/// Kernels with more C than this are the "large" cache-hit class.
const LARGE_C_BYTES: usize = 1 << 20;

/// Whether a request's time is mostly streaming its C through the
/// response: it then follows the streaming reference.
fn streams(c: &Class, c_len: usize) -> bool {
    c.code && c_len > LARGE_C_BYTES
}

fn request_line(id: u64, c: &Class) -> String {
    format!(
        "{{\"id\":{id},\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"emit\":\"{}\"}}",
        c.app,
        c.n,
        c.target,
        if c.code { "c" } else { "summary" }
    )
}

fn options(c: &Class, cache: &TuneCache) -> Options {
    let target = Target::parse(c.target).expect("mix targets are valid");
    Options { cache: cache.clone(), ..Options::for_target(target) }
}

/// Everything one set-up leaves behind.
struct Warm {
    engine: Engine,
    /// Expected response of each class after its `{"id":<id>` prefix.
    expected: Vec<String>,
    save_ms: f64,
    load_ms: f64,
    persisted_hit_ms: f64,
    snapshot: Vec<String>,
    /// Emitted C bytes per class.
    c_len: Vec<usize>,
}

/// Raw and host-speed corrected seconds of a set-up, step by step.
#[derive(Default)]
struct SetupTime {
    raw: f64,
    corrected: f64,
}

impl SetupTime {
    /// Time one set-up step; returns its result and raw milliseconds.
    fn step<R>(&mut self, host: &mut HostSpeed, f: impl FnOnce() -> R) -> (R, f64) {
        let (r, raw, corrected) = host.time(f);
        self.raw += raw;
        self.corrected += corrected;
        (r, raw * 1e3)
    }
}

fn setup(
    work: &std::path::Path,
    rep: usize,
    host: &mut HostSpeed,
) -> Result<(Warm, SetupTime), String> {
    let mut time = SetupTime::default();
    let cold = Engine::new(TuneCache::new(), Target::Avx2);
    for c in &MIX {
        let (resp, _) =
            time.step(host, || cold.handle_line(&request_line(0, &Class { code: false, ..*c })));
        if !resp.contains("\"ok\":true") {
            return Err(format!("pre-warm {}{} {}: {resp}", c.app, c.n, c.target));
        }
    }
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    let path = work.join(format!("serve-cache-{rep}.txt"));
    let (saved, save_ms) = time.step(host, || cold.cache().save(&path));
    saved.map_err(|e| format!("cache save: {e}"))?;
    drop(cold);
    let (loaded, load_ms) = time.step(host, || TuneCache::load_checked(&path));
    let loaded = loaded.map_err(|e| format!("cache load: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let engine = Engine::new(loaded, Target::Avx2);
    let mut persisted_hit_ms = 0.0;
    for c in &MIX {
        let (resp, ms) =
            time.step(host, || engine.handle_line(&request_line(0, &Class { code: false, ..*c })));
        persisted_hit_ms += ms;
        if !resp.contains("\"cache\":\"persisted\"") {
            return Err(format!("first hit on loaded {}{} was not persisted: {resp}", c.app, c.n));
        }
    }
    let mut expected = Vec::new();
    let mut snapshot = Vec::new();
    let mut c_len = Vec::new();
    for c in &MIX {
        let ((resp, g), _) = time.step(host, || {
            let resp = engine.handle_line(&request_line(0, c));
            (resp, slingen::generate(&program(c.app, c.n), &options(c, engine.cache())))
        });
        let tail = resp.strip_prefix("{\"id\":0").ok_or("response does not echo the id")?;
        expected.push(tail.to_string());
        let g = g.map_err(|e| e.to_string())?;
        c_len.push(g.c_code.len());
        snapshot.push(format!(
            "{}{} {} spec={} c_bytes={} static_instrs={} model_cycles={}",
            c.app,
            c.n,
            c.target,
            g.spec,
            g.c_code.len(),
            g.function.static_instr_count(),
            g.report.cycles
        ));
    }
    let warm = Warm { engine, expected, save_ms, load_ms, persisted_hit_ms, snapshot, c_len };
    Ok((warm, time))
}

/// One completed request.
struct Sample {
    class: usize,
    /// Completion time, seconds since the window opened.
    at: f64,
    us: f64,
    /// Host-speed correction factor, from the last meeting, of the
    /// reference this request follows.
    factor: f64,
    traced: bool,
    ok: bool,
    bytes: usize,
}

impl Sample {
    fn corrected_us(&self) -> f64 {
        self.us * self.factor
    }
}

/// What the clients do until their next meeting.
const RUN: u8 = 0;
const TRACE: u8 = 1;
const STOP: u8 = 2;

/// Where the clients meet every `ROUND` requests. With no request in
/// flight, one of them samples the host-speed references and decides
/// what the next round does.
struct Meeting {
    barrier: Barrier,
    /// The allocation reference, which follows small requests, and the
    /// streaming one, which follows responses carrying megabytes of C.
    hosts: Mutex<[HostSpeed; 2]>,
    /// Their factors at the last meeting, as `f64` bits.
    factors: [AtomicU64; 2],
    phase: AtomicU8,
}

impl Meeting {
    fn new(alloc: HostSpeed) -> Meeting {
        Meeting {
            barrier: Barrier::new(CLIENTS),
            hosts: Mutex::new([alloc, HostSpeed::new(Reference::Stream)]),
            factors: [AtomicU64::new(0), AtomicU64::new(0)],
            phase: AtomicU8::new(RUN),
        }
    }

    /// Meet the other clients; returns the next round's phase and the
    /// factors of both references.
    fn meet(&self, start: Instant, seconds: f64, trace_from: Option<f64>) -> (u8, [f64; 2]) {
        if self.barrier.wait().is_leader() {
            let mut hosts = self.hosts.lock().expect("host-speed lock");
            for (host, factor) in hosts.iter_mut().zip(&self.factors) {
                host.sample();
                factor.store(host.factor().to_bits(), Ordering::Relaxed);
            }
            let now = start.elapsed().as_secs_f64();
            let phase = if now >= seconds {
                STOP
            } else if trace_from.is_some_and(|t| now >= t) {
                TRACE
            } else {
                RUN
            };
            self.phase.store(phase, Ordering::Relaxed);
        }
        self.barrier.wait();
        let factor = |i: usize| f64::from_bits(self.factors[i].load(Ordering::Relaxed));
        (self.phase.load(Ordering::Relaxed), [factor(0), factor(1)])
    }
}

/// One client of the closed loop.
fn client(
    warm: &Warm,
    meeting: &Meeting,
    mut rng: Rng,
    start: Instant,
    seconds: f64,
    trace_from: Option<f64>,
    id_base: u64,
) -> (Vec<Sample>, Tracer) {
    let mut samples = Vec::new();
    let mut tr = Tracer::new(start);
    // Each client walks a deck holding every class exactly `copies`
    // times, reshuffled per pass, so the mix is exact on every pass.
    let mut deck: Vec<usize> =
        (0..MIX.len()).flat_map(|k| std::iter::repeat_n(k, copies(k))).collect();
    let mut next = deck.len();
    let mut id = id_base;
    let (mut phase, mut factors) = (RUN, [1.0; 2]);
    for i in 0.. {
        if i % ROUND == 0 {
            (phase, factors) = meeting.meet(start, seconds, trace_from);
        }
        if phase == STOP {
            break;
        }
        let traced = phase == TRACE;
        if next == deck.len() {
            rng.shuffle(&mut deck);
            next = 0;
        }
        let k = deck[next];
        next += 1;
        let c = &MIX[k];
        let line = request_line(id, c);
        let t = Instant::now();
        let resp = if traced {
            tr.span("request", id, |tr| {
                let req = tr.span("serve.parse", id, |_| Request::parse(&line, Target::Avx2));
                match req {
                    Ok(req) => tr
                        .span("serve.handle", id, |_| warm.engine.handle(&req))
                        .unwrap_or_else(|e| e),
                    Err((_, e)) => e,
                }
            })
        } else {
            warm.engine.handle_line(&line)
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        let prefix = format!("{{\"id\":{id}");
        let ok = resp.len() == prefix.len() + warm.expected[k].len()
            && resp.starts_with(&prefix)
            && resp.contains("\"ok\":true")
            && (!id.is_multiple_of(16) || resp[prefix.len()..] == warm.expected[k]);
        if traced {
            let class = if c.n <= SMALL_N {
                "cache.hit.small"
            } else if warm.c_len[k] > LARGE_C_BYTES {
                "cache.hit.large"
            } else {
                "cache.hit.mid"
            };
            tr.span("replay", id, |tr| {
                let g = tr.span(class, id, |_| {
                    slingen::generate(&program(c.app, c.n), &options(c, warm.engine.cache()))
                });
                if let (Ok(g), true) = (g, c.code) {
                    tr.span("serve.render", id, |_| escape_json(&g.c_code));
                }
            });
        }
        samples.push(Sample {
            class: k,
            at: start.elapsed().as_secs_f64(),
            us,
            factor: factors[streams(c, warm.c_len[k]) as usize],
            traced,
            ok,
            bytes: resp.len(),
        });
        id += 1;
    }
    (samples, tr)
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let work = args.out.join("work");
    let first_setup = Instant::now();
    let mut host = HostSpeed::new(Reference::Alloc);
    let (mut setup_raw, mut setup_reps) = (Vec::new(), Vec::new());
    let mut warm = None;
    let mut snapshots: Vec<Vec<String>> = Vec::new();
    let (mut save, mut load, mut persisted) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        // Every repetition starts with no engine alive.
        drop(warm.take());
        let (w, time) = match setup(&work, rep, &mut host) {
            Ok(w) => w,
            Err(e) => {
                out.require(false, || format!("serve_hot set-up: {e}"));
                return out;
            }
        };
        setup_raw.push(time.raw);
        setup_reps.push(time.corrected);
        save.push(w.save_ms);
        load.push(w.load_ms);
        persisted.push(w.persisted_hit_ms);
        snapshots.push(w.snapshot.clone());
        warm = Some(w);
    }
    let warm = warm.expect("at least one set-up");
    let setup_s = setup_seconds(process_start, first_setup, &setup_reps);
    for (rep, s) in snapshots.iter().enumerate().skip(1) {
        out.require(*s == snapshots[0], || format!("set-up {rep} picked different winners"));
    }
    out.snapshot = snapshots.swap_remove(0);
    let searches_before = warm.engine.cache().searches();
    out.require(searches_before == 0, || format!("{searches_before} searches on the loaded cache"));
    let setup_rss = crate::peak_rss_mb().unwrap_or(0.0);

    let rng = Rng::new(args.seed);
    let trace_from = args.trace.then_some(args.seconds / 2.0);
    let meeting = Meeting::new(host);
    let start = Instant::now();
    let results: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|i| {
                let (warm, meeting, rng) = (&warm, &meeting, rng.fork(i));
                s.spawn(move || {
                    client(warm, meeting, rng, start, args.seconds, trace_from, i << 40)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(process_start);
    let mut samples = Vec::new();
    for (s, tr) in results {
        samples.extend(s);
        tracer.absorb(tr);
    }
    for s in &samples {
        let c = &MIX[s.class];
        out.check(s.ok, || format!("response to {}{} {} did not match", c.app, c.n, c.target));
    }
    let searches = warm.engine.cache().searches();
    out.require(searches == 0, || format!("{searches} searches ran after the pre-warm"));

    let per_class: Vec<String> = (0..MIX.len())
        .filter_map(|k| {
            let v: Vec<f64> =
                samples.iter().filter(|s| s.class == k && !s.traced).map(|s| s.us).collect();
            (!v.is_empty()).then(|| {
                let c = &MIX[k];
                format!(
                    "{}{}/{}/{}={:.0}",
                    c.app,
                    c.n,
                    c.target,
                    if c.code { "c" } else { "s" },
                    median(&v)
                )
            })
        })
        .collect();
    out.notes.push(format!(
        "serve_hot: {} requests in {wall:.2}s by {CLIENTS} clients; peak RSS {setup_rss:.1} MB after set-up; per-class p50 us: {}",
        samples.len(),
        per_class.join(" ")
    ));

    // Per whole slice of the untraced window: host-speed corrected
    // latency quantiles and throughput; the median slice is reported.
    let window = trace_from.unwrap_or(args.seconds);
    let slices = ((window / SLICE_S) as usize).max(1);
    let per_slice: Vec<Vec<&Sample>> = (0..slices)
        .map(|i| {
            let (lo, hi) = (i as f64 * SLICE_S, (i + 1) as f64 * SLICE_S);
            samples.iter().filter(|s| !s.traced && s.at >= lo && s.at < hi).collect()
        })
        .filter(|v: &Vec<&Sample>| !v.is_empty())
        .collect();
    let slice_q = |q: f64, us: fn(&Sample) -> f64| -> f64 {
        let per: Vec<f64> = per_slice
            .iter()
            .map(|v| quantile(&v.iter().map(|s| us(s)).collect::<Vec<_>>(), q))
            .collect();
        median(&per)
    };
    // The closed loop's request rate at the corrected latencies.
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|v| {
            CLIENTS as f64 * 1e6 * v.len() as f64 / v.iter().map(|s| s.corrected_us()).sum::<f64>()
        })
        .collect();
    if !args.trace {
        out.notes.push(format!(
            "serve_hot uncorrected: setup_s {:.3} latency_p50_us {:.1} latency_tail_us {:.1} ops_per_s {:.0}; median host-speed factor {:.3} (streaming {:.3})",
            (first_setup - process_start).as_secs_f64() + median(&setup_raw),
            slice_q(0.5, |s| s.us),
            slice_q(0.99, |s| s.us),
            median(&per_slice.iter().map(|v| v.len() as f64 / SLICE_S).collect::<Vec<_>>()),
            median(&samples.iter().map(|s| s.factor).collect::<Vec<_>>()),
            median(&samples.iter().filter(|s| s.class == MIX.len() - 1).map(|s| s.factor).collect::<Vec<_>>())
        ));
        out.set("setup_s", setup_s);
        out.set("latency_p50_us", slice_q(0.5, Sample::corrected_us));
        out.set("latency_tail_us", slice_q(0.99, Sample::corrected_us));
        out.set("ops_per_s", median(&rates));
        out.set("c_bytes_total", warm.c_len.iter().sum::<usize>() as f64);
        return out;
    }

    let untraced: Vec<f64> =
        samples.iter().filter(|s| !s.traced).map(Sample::corrected_us).collect();
    let traced: Vec<f64> = samples.iter().filter(|s| s.traced).map(Sample::corrected_us).collect();
    if untraced.is_empty() || traced.is_empty() {
        out.require(false, || "traced serve_hot run too short for both halves".into());
        return out;
    }
    let (base, with) = (median(&untraced), median(&traced));
    out.set("trace.untraced_p50_us", base);
    out.set("trace.traced_p50_us", with);
    out.set("trace.p50_shift", with / base - 1.0);
    out.set("trace.replay_ms", tracer.total_ms("replay") / traced.len() as f64);
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.handle_us", "serve.handle"),
        ("serve.render_us", "serve.render"),
        ("cache.hit_us.small", "cache.hit.small"),
        ("cache.hit_us.large", "cache.hit.large"),
    ] {
        let d = tracer.durations_us(span);
        out.set(metric, if d.is_empty() { 0.0 } else { median(&d) });
    }
    let bytes: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    out.set("serve.resp_bytes", bytes.iter().sum::<f64>() / bytes.len() as f64);
    let t = warm.engine.cache().totals();
    let counts: BTreeMap<&'static str, f64> = [
        ("cache.hits", t.hits as f64),
        ("cache.misses", t.misses as f64),
        ("cache.searches", t.searches as f64),
        ("cache.coalesced", t.coalesced as f64),
        ("cache.entries", t.entries as f64),
        ("cache.save_ms", median(&save)),
        ("cache.load_ms", median(&load)),
        ("cache.persisted_hit_ms", median(&persisted)),
    ]
    .into_iter()
    .collect();
    for (k, v) in counts {
        out.set(k, v);
    }
    let path = args.out.join(format!("trace-serve_hot-{}.jsonl", args.seed));
    match tracer.write(&path) {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("could not write {}: {e}", path.display())),
    }
    out
}
