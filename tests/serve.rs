//! Concurrency and serve-front-end suite: N threads over one shared
//! cache must run exactly one search per unique kernel, waiters must
//! receive byte-identical artifacts, and the line protocol must answer
//! every request with exactly one well-formed response.

use slingen::serve::{escape_json, serve_lines, Engine, ServeSummary, MAX_LINE};
use slingen::{apps, Generated, Options, Target, TuneCache};
use std::sync::Barrier;

/// K threads racing on the *same* kernel: exactly one search runs; the
/// other K−1 requests are served as hits or coalesced waiters; every
/// thread gets C byte-identical to a single-threaded reference run.
#[test]
fn concurrent_identical_requests_run_one_search() {
    const K: usize = 8;
    let reference = slingen::generate(&apps::potrf(6), &Options::default()).unwrap();
    let cache = TuneCache::new();
    let barrier = Barrier::new(K);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                s.spawn(|| {
                    let opts = Options { cache: cache.clone(), ..Options::default() };
                    barrier.wait();
                    slingen::generate(&apps::potrf(6), &opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(cache.searches(), 1, "exactly one search for one unique key");
    let totals = cache.totals();
    assert_eq!(totals.misses, 1);
    assert_eq!(totals.hits + totals.coalesced, (K - 1) as u64);
    assert_eq!(totals.entries, 1);
    for g in &results {
        assert_eq!(g.c_code, reference.c_code, "every thread sees the reference artifact");
        assert_eq!(g.spec, reference.spec);
    }
    let served_cold = results.iter().filter(|g| !g.tuning.cache_hit).count();
    assert_eq!(served_cold, 1, "exactly one caller observed the cold search");
}

/// K threads on K *distinct* kernels: one search each, no coalescing,
/// and each artifact matches its own single-threaded run.
#[test]
fn concurrent_distinct_requests_search_once_each() {
    const K: usize = 8;
    let cache = TuneCache::new();
    let barrier = Barrier::new(K);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let cache = cache.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let opts = Options { cache, ..Options::default() };
                    barrier.wait();
                    (i, slingen::generate(&apps::potrf(3 + i), &opts).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(cache.searches(), K as u64);
    assert_eq!(cache.len(), K);
    assert_eq!(cache.totals().coalesced, 0);
    for (i, g) in &results {
        let solo = slingen::generate(&apps::potrf(3 + i), &Options::default()).unwrap();
        assert_eq!(g.c_code, solo.c_code, "potrf({}) must match its solo run", 3 + i);
    }
}

/// A save/load cycle of a concurrently built cache replays every entry.
#[test]
fn concurrently_built_cache_round_trips() {
    const K: usize = 4;
    let cache = TuneCache::new();
    std::thread::scope(|s| {
        for i in 0..K {
            let cache = cache.clone();
            s.spawn(move || {
                let opts = Options { cache, ..Options::default() };
                slingen::generate(&apps::trtri(3 + i), &opts).unwrap();
            });
        }
    });
    let path =
        std::env::temp_dir().join(format!("slingen-serve-test-{}-roundtrip", std::process::id()));
    assert_eq!(cache.save(&path).unwrap(), K);
    let loaded = TuneCache::load_checked(&path).unwrap();
    let replay = Options { cache: loaded.clone(), ..Options::default() };
    for i in 0..K {
        let g = slingen::generate(&apps::trtri(3 + i), &replay).unwrap();
        assert!(g.tuning.cache_hit && g.tuning.persisted, "trtri({}) must replay", 3 + i);
    }
    assert_eq!(loaded.searches(), 0);
    let _ = std::fs::remove_file(&path);
}

/// The engine's line protocol: well-formed responses, cache markers that
/// progress miss → hit, summary mode omitting the C payload.
#[test]
fn engine_line_protocol() {
    let engine = Engine::new(TuneCache::new(), Target::Avx2);
    let first = engine.handle_line(r#"{"id":1,"app":"potrf","n":4}"#);
    assert!(first.contains("\"id\":1"), "{first}");
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    assert!(first.contains("\"c\":\""), "{first}");
    assert!(first.contains("void potrf"), "{first}");

    let second = engine.handle_line(r#"{"id":2,"app":"potrf","n":4}"#);
    assert!(second.contains("\"cache\":\"hit\""), "{second}");

    let summary = engine.handle_line(r#"{"id":3,"app":"potrf","n":4,"emit":"summary"}"#);
    assert!(summary.contains("\"winner\":\""), "{summary}");
    assert!(summary.contains("\"cycles\":"), "{summary}");
    assert!(!summary.contains("\"c\":"), "summary must omit the code: {summary}");

    // kf with an explicit observation count is a distinct kernel
    let kf = engine.handle_line(r#"{"id":4,"app":"kf","n":4,"k":2,"emit":"summary"}"#);
    assert!(kf.contains("\"ok\":true"), "{kf}");
    let kf2 = engine.handle_line(r#"{"id":5,"app":"kf","n":4,"k":2,"emit":"summary"}"#);
    assert!(kf2.contains("\"cache\":\"hit\""), "{kf2}");

    // errors are responses, not crashes
    for bad in [
        "this is not json",
        r#"{"id":6,"app":"gemm","n":4}"#,
        r#"{"id":7,"app":"potrf","n":1000}"#,
        r#"{"id":8,"app":"potrf"}"#,
    ] {
        let resp = engine.handle_line(bad);
        assert!(resp.contains("\"ok\":false"), "{bad} -> {resp}");
        assert!(resp.contains("\"error\":\""), "{bad} -> {resp}");
    }
    assert_eq!(engine.cache().searches(), 2, "potrf(4) and kf(4,2)");
}

/// `serve_lines` pumps a whole stream through the worker pool: one
/// response line per request, all ids answered, errors counted.
#[test]
fn serve_lines_answers_every_request() {
    let engine = Engine::new(TuneCache::new(), Target::Avx2);
    let input = r#"{"id":10,"app":"potrf","n":4,"emit":"summary"}
{"id":11,"app":"potrf","n":4,"emit":"summary"}

{"id":12,"app":"trtri","n":4,"emit":"summary"}
{"id":13,"app":"nope","n":4}
{"id":14,"app":"potrf","n":4,"emit":"summary"}
"#;
    let mut out = Vec::new();
    let summary = serve_lines(&engine, input.as_bytes(), &mut out, 4).unwrap();
    assert_eq!(summary.requests, 5, "blank lines are skipped");
    assert_eq!(summary.errors, 1);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one response line per request:\n{text}");
    for id in [10, 11, 12, 13, 14] {
        assert!(text.contains(&format!("\"id\":{id}")), "id {id} unanswered:\n{text}");
    }
    // the three potrf(4) requests ran exactly one search among them
    assert_eq!(engine.cache().searches(), 2, "potrf(4) and trtri(4)");
}

/// The response line for `g`, rendered the way the engine rendered an
/// owned `Generated` before it served hits from the cache's shared entry:
/// the oracle the engine's output must match byte for byte.
fn render_generated(id: u64, req: &ReqSpec, code: bool, g: &Generated) -> String {
    let t = &g.tuning;
    let marker = if t.coalesced {
        "coalesced"
    } else if t.cache_hit && t.persisted {
        "persisted"
    } else if t.cache_hit {
        "hit"
    } else {
        "miss"
    };
    let mut resp = format!(
        "{{\"id\":{id},\"ok\":true,\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"cache\":\"{marker}\",\
         \"cycles_source\":\"{}\",\
         \"winner\":\"{}\",\"cycles\":{:.1},\"flops_per_cycle\":{:.3}",
        req.app,
        req.n,
        req.target,
        g.cycles_source(),
        g.spec,
        g.report.cycles,
        g.flops_per_cycle(),
    );
    if code {
        resp.push_str(&format!(",\"c\":\"{}\"", escape_json(&g.c_code)));
    }
    resp.push('}');
    resp
}

/// The kernel the rendering test asks for.
struct ReqSpec {
    app: &'static str,
    n: usize,
    target: Target,
}

impl ReqSpec {
    fn line(&self, id: u64, code: bool) -> String {
        let emit = if code { "c" } else { "summary" };
        format!(
            "{{\"id\":{id},\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"emit\":\"{emit}\"}}",
            self.app, self.n, self.target
        )
    }

    fn generate(&self, cache: &TuneCache) -> Generated {
        let opts = Options { cache: cache.clone(), ..Options::for_target(self.target) };
        slingen::generate(&apps::by_name(self.app, self.n, None).unwrap(), &opts).unwrap()
    }
}

fn marker(resp: &str) -> &str {
    let rest = &resp[resp.find("\"cache\":\"").expect("a cache marker") + 9..];
    &rest[..rest.find('"').unwrap()]
}

/// Responses rendered from the cache's shared entry are byte-identical to
/// responses rendered from `generate()`'s owned `Generated`, for every
/// cache marker and both payloads.
#[test]
fn responses_match_generate_for_every_cache_marker() {
    let req = ReqSpec { app: "potrf", n: 5, target: Target::Avx2Fma };
    let path =
        std::env::temp_dir().join(format!("slingen-serve-test-{}-render", std::process::id()));
    for code in [true, false] {
        // miss, then an in-memory hit
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let reference = TuneCache::new();
        for expected in ["miss", "hit"] {
            let resp = engine.handle_line(&req.line(1, code));
            assert_eq!(marker(&resp), expected);
            assert_eq!(resp, render_generated(1, &req, code, &req.generate(&reference)));
        }

        // the first request after a reload replays the persisted entry
        engine.cache().save(&path).unwrap();
        let engine = Engine::new(TuneCache::load_checked(&path).unwrap(), Target::Avx2);
        let resp = engine.handle_line(&req.line(2, code));
        let g = req.generate(&TuneCache::load_checked(&path).unwrap());
        assert_eq!(marker(&resp), "persisted");
        assert_eq!(resp, render_generated(2, &req, code, &g));

        // requests racing on one search coalesce onto it; retry until both
        // an engine response and a `generate()` caller were among them
        let coalesced = (0..20).find_map(|_| {
            let engine = Engine::new(TuneCache::new(), Target::Avx2);
            let barrier = Barrier::new(4);
            let (resps, gens) = std::thread::scope(|s| {
                let resps: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            engine.handle_line(&req.line(3, code))
                        })
                    })
                    .collect();
                let gens: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            req.generate(engine.cache())
                        })
                    })
                    .collect();
                let resps: Vec<String> = resps.into_iter().map(|h| h.join().unwrap()).collect();
                let gens: Vec<Generated> = gens.into_iter().map(|h| h.join().unwrap()).collect();
                (resps, gens)
            });
            let resp = resps.into_iter().find(|r| marker(r) == "coalesced")?;
            let g = gens.into_iter().find(|g| g.tuning.coalesced)?;
            Some((resp, g))
        });
        let (resp, g) = coalesced.expect("no race coalesced in 20 attempts");
        assert_eq!(resp, render_generated(3, &req, code, &g));
    }
    let _ = std::fs::remove_file(&path);
}

/// `serve_lines` caps request lines at `MAX_LINE` bytes: a longer line
/// (here 1 MiB) gets one error response and is skipped, non-UTF-8 input
/// is an error response too, and the requests after them are answered.
#[test]
fn serve_lines_rejects_over_long_lines_and_keeps_serving() {
    let engine = Engine::new(TuneCache::new(), Target::Avx2);
    // A summary request padded with an ignored key to exactly `len` bytes.
    let padded = |id: u64, len: usize| {
        let head =
            format!("{{\"id\":{id},\"app\":\"potrf\",\"n\":3,\"emit\":\"summary\",\"pad\":\"");
        format!("{head}{}\"}}", "x".repeat(len - head.len() - 2))
    };
    let mut input = Vec::new();
    for line in [padded(20, 1 << 20), padded(21, MAX_LINE + 1), padded(22, MAX_LINE)] {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }
    input.extend_from_slice(b"\xff\xfe\n");
    input.extend_from_slice(br#"{"id":23,"app":"potrf","n":3,"emit":"summary"}"#);
    input.push(b'\n');
    let mut out = Vec::new();
    let summary = serve_lines(&engine, input.as_slice(), &mut out, 2).unwrap();
    assert_eq!(summary, ServeSummary { requests: 5, errors: 3 });
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one response line per request:\n{text}");
    let too_long = format!("\"error\":\"request line exceeds {MAX_LINE} bytes\"");
    assert_eq!(lines.iter().filter(|l| l.contains(&too_long)).count(), 2, "{text}");
    assert!(text.contains("not UTF-8"), "{text}");
    for id in [22, 23] {
        let answered = format!("{{\"id\":{id},\"ok\":true");
        assert!(lines.iter().any(|l| l.starts_with(&answered)), "id {id} unanswered:\n{text}");
    }
    assert!(!text.contains("\"id\":20") && !text.contains("\"id\":21"), "{text}");
}
