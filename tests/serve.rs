//! Concurrency and serve-front-end suite: N threads over one shared
//! cache must run exactly one search per unique kernel, waiters must
//! receive byte-identical artifacts, and the line protocol must answer
//! every request with exactly one well-formed response.

use slingen::serve::{serve_lines, Engine};
use slingen::{apps, Options, Target, TuneCache};
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
