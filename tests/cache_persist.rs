//! Persistence suite: the tuning cache must round-trip through its
//! on-disk format byte-exactly, and must treat every corrupt, truncated,
//! stale, or wrong-version file as empty — logged, never trusted, never
//! a panic.

use slingen::{apps, Options, TuneCache};
use slingen_ir::Program;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slingen-cache-test-{}-{name}", std::process::id()))
}

fn tracked_apps() -> Vec<Program> {
    vec![apps::potrf(6), apps::trtri(6), apps::trsyl(4), apps::kf(4), apps::gpr(4)]
}

/// Save → load replays every tracked workload as a persisted hit with
/// byte-identical C, the exact report, and zero cold searches.
#[test]
fn save_load_round_trip_replays_every_entry() {
    let warm = Options::default();
    let cold: Vec<_> =
        tracked_apps().iter().map(|p| slingen::generate(p, &warm).unwrap()).collect();
    assert_eq!(warm.cache.searches(), tracked_apps().len() as u64);

    let path = tmp("roundtrip");
    let written = warm.cache.save(&path).unwrap();
    assert_eq!(written, tracked_apps().len());

    let loaded = TuneCache::load_checked(&path).unwrap();
    assert_eq!(loaded.len(), written);
    let replay = Options { cache: loaded.clone(), ..Options::default() };
    for (program, cold) in tracked_apps().iter().zip(&cold) {
        let g = slingen::generate(program, &replay).unwrap();
        assert!(g.tuning.cache_hit, "{}: must replay from disk", program.name());
        assert!(g.tuning.persisted, "{}: must be marked persisted", program.name());
        assert_eq!(g.c_code, cold.c_code, "{}: C must be byte-identical", program.name());
        assert_eq!(g.spec, cold.spec);
        assert_eq!(g.report.cycles, cold.report.cycles);
        assert_eq!(g.report.flops, cold.report.flops);
    }
    assert_eq!(loaded.searches(), 0, "a warm-loaded cache must not re-search");
    // replayed entries are re-persistable: a second round trip is stable
    let path2 = tmp("roundtrip2");
    assert_eq!(loaded.save(&path2).unwrap(), written);
    assert_eq!(fs::read_to_string(&path).unwrap(), fs::read_to_string(&path2).unwrap());
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&path2);
}

/// The file lists entries in key order, so re-saving a loaded cache
/// reproduces the file byte for byte however its keys hash.
#[test]
fn resaving_a_loaded_cache_is_byte_identical() {
    let opts = Options::default();
    for n in 3..=12 {
        slingen::generate(&apps::potrf(n), &opts).unwrap();
        slingen::generate(&apps::trtri(n), &opts).unwrap();
    }
    let (first, second) = (tmp("order-1"), tmp("order-2"));
    assert_eq!(opts.cache.save(&first).unwrap(), 20);
    let loaded = TuneCache::load_checked(&first).unwrap();
    assert_eq!(loaded.save(&second).unwrap(), 20);
    assert!(fs::read(&first).unwrap() == fs::read(&second).unwrap(), "re-save must not reorder");
    let _ = fs::remove_file(&first);
    let _ = fs::remove_file(&second);
}

/// A missing file is not an error for `load` (cold start), but is for
/// `load_checked`.
#[test]
fn missing_file_loads_empty() {
    let path = tmp("does-not-exist");
    let cache = TuneCache::load(&path);
    assert!(cache.is_empty());
    assert!(TuneCache::load_checked(&path).is_err());
}

/// Every corruption mode degrades to an empty cache with a reason — and
/// generation through that empty cache still works.
#[test]
fn corrupt_files_load_empty_and_never_panic() {
    // a real file to derive truncated/doctored variants from
    let opts = Options::default();
    slingen::generate(&apps::potrf(4), &opts).unwrap();
    let valid_path = tmp("valid");
    opts.cache.save(&valid_path).unwrap();
    let valid = fs::read_to_string(&valid_path).unwrap();
    let _ = fs::remove_file(&valid_path);

    let truncated = &valid[..valid.len() / 2];
    assert!(valid.starts_with("slingen-tunecache v2\n"), "saves write the v2 header");
    let wrong_version = valid.replacen("slingen-tunecache v2", "slingen-tunecache v99", 1);
    let lying_length = valid.replacen("code ", "code 9", 1); // inflates the blob length
    let no_end_marker = valid[..valid.rfind("end ").unwrap()].to_string();
    let trailing_garbage = format!("{valid}junk after the end marker\n");
    let cases: Vec<(&str, String)> = vec![
        ("empty", String::new()),
        ("bad-magic", "not-a-cache v1\n".into()),
        ("wrong-version", wrong_version),
        ("truncated", truncated.into()),
        ("binary-garbage", "\u{1}\u{2}\u{3}\u{fffd}\n\n\u{4}".into()),
        ("lying-length", lying_length),
        ("no-end-marker", no_end_marker),
        ("trailing-garbage", trailing_garbage),
    ];
    for (name, contents) in cases {
        let path = tmp(name);
        fs::write(&path, contents).unwrap();
        let err = TuneCache::load_checked(&path);
        assert!(err.is_err(), "{name}: load_checked must reject the file");
        let cache = TuneCache::load(&path);
        assert!(cache.is_empty(), "{name}: load must degrade to an empty cache");
        let _ = fs::remove_file(&path);
    }

    // an empty (degraded) cache still serves generation
    let degraded = Options { cache: TuneCache::load(&tmp("empty")), ..Options::default() };
    let g = slingen::generate(&apps::potrf(4), &degraded).unwrap();
    assert!(!g.tuning.cache_hit);
}

/// A well-formed but *stale* file — the persisted C no longer matches
/// what the generator emits for the recorded spec — is rejected at
/// materialization time and falls back to a fresh search.
#[test]
fn stale_persisted_code_falls_back_to_a_fresh_search() {
    let opts = Options::default();
    let cold = slingen::generate(&apps::potrf(4), &opts).unwrap();
    let path = tmp("stale");
    opts.cache.save(&path).unwrap();

    // Doctor one byte inside the C blob, keeping the length intact, so
    // the file parses cleanly but no longer matches the generator.
    let contents = fs::read_to_string(&path).unwrap();
    assert!(contents.contains("void potrf"));
    fs::write(&path, contents.replacen("void potrf", "woid potrf", 1)).unwrap();

    let loaded = TuneCache::load_checked(&path).unwrap();
    assert_eq!(loaded.len(), 1, "the doctored file still parses");
    let replay = Options { cache: loaded.clone(), ..Options::default() };
    let g = slingen::generate(&apps::potrf(4), &replay).unwrap();
    assert!(!g.tuning.cache_hit, "a stale entry must not be replayed");
    assert_eq!(g.c_code, cold.c_code, "the fresh search must reproduce the true artifact");
    assert_eq!(loaded.searches(), 1, "the fallback runs exactly one search");
    let t = loaded.totals();
    assert_eq!((t.hits, t.misses), (0, 1), "a rejected entry counts as a miss, not a hit");
    // and the repaired entry replays normally from now on
    let again = slingen::generate(&apps::potrf(4), &replay).unwrap();
    assert!(again.tuning.cache_hit);
    assert_eq!(loaded.totals().hits, 1);
    let _ = fs::remove_file(&path);
}

/// `save` is atomic: it never leaves a temp file behind, and an existing
/// file is replaced wholesale, not appended to.
#[test]
fn save_is_atomic_and_replaces() {
    let opts = Options::default();
    slingen::generate(&apps::potrf(4), &opts).unwrap();
    let path = tmp("atomic");
    opts.cache.save(&path).unwrap();
    let first = fs::read_to_string(&path).unwrap();
    slingen::generate(&apps::trtri(4), &opts).unwrap();
    opts.cache.save(&path).unwrap();
    let second = fs::read_to_string(&path).unwrap();
    assert_ne!(first, second);
    assert!(second.ends_with("end 2\n"), "exactly one end marker with the new count");
    assert_eq!(second.matches("slingen-tunecache").count(), 1, "replaced, not appended");
    let dir = path.parent().unwrap();
    let stem = path.file_name().unwrap().to_string_lossy().into_owned();
    let leftovers: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&stem) && *n != stem)
        .collect();
    assert!(leftovers.is_empty(), "no temp files left behind: {leftovers:?}");
    let _ = fs::remove_file(&path);
}

/// `save_capped` evicts the least-recently-hit entries — from the file
/// *and* from memory — keeping the `cap` most recently touched. Recency
/// follows lookups, not insertion order: re-hitting an old entry saves
/// it from eviction.
#[test]
fn save_capped_evicts_least_recently_hit() {
    let opts = Options::default();
    let programs = tracked_apps();
    for p in &programs {
        slingen::generate(p, &opts).unwrap();
    }
    assert_eq!(opts.cache.len(), programs.len());

    // Refresh the two *oldest* entries: a pure-insertion-order policy
    // would now evict exactly the wrong ones.
    slingen::generate(&programs[0], &opts).unwrap();
    slingen::generate(&programs[1], &opts).unwrap();

    let path = tmp("capped");
    let written = opts.cache.save_capped(&path, Some(3)).unwrap();
    assert_eq!(written, 3, "the cap bounds the file");
    assert_eq!(opts.cache.len(), 3, "eviction also bounds the in-memory store");

    // Survivors: the refreshed [0], [1] and the last-inserted [4].
    let searches_before = opts.cache.searches();
    for keep in [0, 1, 4] {
        let g = slingen::generate(&programs[keep], &opts).unwrap();
        assert!(g.tuning.cache_hit, "{}: recently-hit entry must survive", programs[keep].name());
    }
    assert_eq!(opts.cache.searches(), searches_before, "survivors replay without searching");
    // Evicted: [2] and [3] re-search from scratch.
    for gone in [2, 3] {
        let g = slingen::generate(&programs[gone], &opts).unwrap();
        assert!(
            !g.tuning.cache_hit,
            "{}: least-recently-hit entry must be evicted",
            programs[gone].name()
        );
    }

    // The saved file holds exactly the survivors: a fresh load replays
    // all three without a search.
    let loaded = TuneCache::load_checked(&path).unwrap();
    assert_eq!(loaded.len(), 3);
    let replay = Options { cache: loaded.clone(), ..Options::default() };
    for keep in [0, 1, 4] {
        let g = slingen::generate(&programs[keep], &replay).unwrap();
        assert!(g.tuning.cache_hit && g.tuning.persisted, "{}", programs[keep].name());
    }
    assert_eq!(loaded.searches(), 0);
    let _ = fs::remove_file(&path);
}

/// Mixed-version compatibility: a v1-headed file (the pre-measured
/// format) still loads and replays. Model-only entries carry no `M`
/// report section, so rewriting the header is exactly what an old
/// writer would have produced.
#[test]
fn v1_files_still_load_and_replay() {
    let opts = Options::default();
    let cold = slingen::generate(&apps::potrf(4), &opts).unwrap();
    let path = tmp("v1-compat");
    opts.cache.save(&path).unwrap();

    let contents = fs::read_to_string(&path).unwrap();
    assert!(
        !contents.contains(" M "),
        "model-only reports must serialize without a measured section"
    );
    let v1 = contents.replacen("slingen-tunecache v2", "slingen-tunecache v1", 1);
    assert_ne!(v1, contents, "the header must actually have been rewritten");
    fs::write(&path, v1).unwrap();

    let loaded = TuneCache::load_checked(&path).unwrap();
    assert_eq!(loaded.len(), 1, "a v1 file is accepted");
    let replay = Options { cache: loaded, ..Options::default() };
    let g = slingen::generate(&apps::potrf(4), &replay).unwrap();
    assert!(g.tuning.cache_hit && g.tuning.persisted);
    assert_eq!(g.c_code, cold.c_code);
    assert_eq!(g.report.measured, None);

    // and re-saving upgrades the file to the current header
    assert_eq!(replay.cache.save(&path).unwrap(), 1);
    assert!(fs::read_to_string(&path).unwrap().starts_with("slingen-tunecache v2\n"));
    let _ = fs::remove_file(&path);
}

/// v2 round trip with a *measured* report: the optional `M` section
/// survives save → load bit-exactly. Needs a working C compiler; skips
/// (trivially passes) without one.
#[test]
fn measured_reports_round_trip_through_the_cache() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let opts = Options { measure: slingen::MeasureConfig::hardware(), ..Options::default() };
    let cold = slingen::generate(&apps::potrf(4), &opts).unwrap();
    let Some(measured) = cold.report.measured else {
        eprintln!("skipping: hardware measurement fell back to the model");
        return;
    };

    let path = tmp("v2-measured");
    opts.cache.save(&path).unwrap();
    assert!(
        fs::read_to_string(&path).unwrap().contains(" M "),
        "a measured report must persist its M section"
    );

    let loaded = TuneCache::load_checked(&path).unwrap();
    let replay = Options { cache: loaded, measure: opts.measure.clone(), ..Options::default() };
    let g = slingen::generate(&apps::potrf(4), &replay).unwrap();
    assert!(g.tuning.cache_hit && g.tuning.persisted);
    assert_eq!(g.report.measured, Some(measured), "measured timing must round-trip bit-exactly");
    assert_eq!(g.cycles_source(), "measured");
    let _ = fs::remove_file(&path);
}

fn cc_available() -> bool {
    std::process::Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// A cap at or above the entry count is a no-op: nothing evicted, and
/// the file is what an uncapped save writes.
#[test]
fn save_capped_above_len_is_uncapped() {
    let opts = Options::default();
    slingen::generate(&apps::potrf(4), &opts).unwrap();
    slingen::generate(&apps::trtri(4), &opts).unwrap();
    let capped = tmp("cap-noop");
    let plain = tmp("cap-noop-plain");
    assert_eq!(opts.cache.save_capped(&capped, Some(100)).unwrap(), 2);
    assert_eq!(opts.cache.len(), 2, "no eviction at or above the cap");
    assert_eq!(opts.cache.save(&plain).unwrap(), 2);
    assert_eq!(
        fs::read_to_string(&capped).unwrap(),
        fs::read_to_string(&plain).unwrap(),
        "a generous cap writes the same file as an uncapped save"
    );
    let _ = fs::remove_file(&capped);
    let _ = fs::remove_file(&plain);
}
