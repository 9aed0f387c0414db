//! Persistence suite: the tuning cache must round-trip through its
//! on-disk format byte-exactly, and must treat every corrupt, truncated,
//! stale, or wrong-version file as empty — logged, never trusted, never
//! a panic.

use proptest::prelude::*;
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
    assert!(valid.starts_with("slingen-tunecache v3\n"), "saves write the v3 header");
    let wrong_version = valid.replacen("slingen-tunecache v3", "slingen-tunecache v99", 1);
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
/// what the generator emits for the recorded spec, or the spec names a
/// width the target lacks — is rejected at materialization time and
/// falls back to a fresh search.
#[test]
fn stale_persisted_code_falls_back_to_a_fresh_search() {
    let opts = Options::default();
    let cold = slingen::generate(&apps::potrf(4), &opts).unwrap();
    let path = tmp("stale");
    opts.cache.save(&path).unwrap();
    let contents = fs::read_to_string(&path).unwrap();
    assert!(contents.contains("void potrf") && contents.contains("\nspec eager 1\n"));

    // Each doctoring keeps every length intact, so the file parses
    // cleanly but no longer matches the generator. ν = 3 is no width of
    // any target; re-materializing it used to panic in the unparser.
    for (from, to) in [("void potrf", "woid potrf"), ("\nspec eager 1\n", "\nspec eager 3\n")] {
        fs::write(&path, contents.replacen(from, to, 1)).unwrap();
        let loaded = TuneCache::load_checked(&path).unwrap();
        assert_eq!(loaded.len(), 1, "{to:?}: the doctored file still parses");
        let replay = Options { cache: loaded.clone(), ..Options::default() };
        let g = slingen::generate(&apps::potrf(4), &replay).unwrap();
        assert!(!g.tuning.cache_hit, "{to:?}: a stale entry must not be replayed");
        assert_eq!(g.c_code, cold.c_code, "the fresh search must reproduce the true artifact");
        assert_eq!(loaded.searches(), 1, "the fallback runs exactly one search");
        let t = loaded.totals();
        assert_eq!((t.hits, t.misses), (0, 1), "a rejected entry counts as a miss, not a hit");
        // and the repaired entry replays normally from now on
        let again = slingen::generate(&apps::potrf(4), &replay).unwrap();
        assert!(again.tuning.cache_hit);
        assert_eq!(loaded.totals().hits, 1);
    }
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

/// A cache file in the previous format (v2), one entry: its key ends in
/// the old space fingerprint's loop-threshold list, its `spec` line
/// carries the winner's threshold and its `stats` line the `predicted`
/// count.
fn v2_file() -> String {
    let key = "potrf(4)|target:avx2|nus:[1, 2, 4]|space:Greedy;lazy,eager,;1,2,4,;16,64,256,";
    let report = "1520.5 84 0";
    let code = "void potrf(double *S, double *U) {\n}";
    format!(
        "slingen-tunecache v2\nentry\nkey {}\n{key}\nspec eager 1 16\ndb 3 5\n\
         stats 9 3 0 4\nreport {}\n{report}\ncode {}\n{code}\nend 1\n",
        key.len(),
        report.len(),
        code.len()
    )
}

/// Files of an older format degrade, never die: their keys name the old
/// search space and could never hit, so `load_checked` rejects them with
/// a reason naming the version and `load` starts empty. `slingen-serve`
/// over such a file answers every request as a miss and then saves a v3
/// file, which reloads and re-saves byte for byte and replays every
/// request from disk.
#[test]
fn old_version_files_load_empty_and_serve_resaves_them_as_v3() {
    let path = tmp("v2-fixture");
    for version in ["v1", "v2"] {
        fs::write(&path, v2_file().replacen("v2", version, 1)).unwrap();
        let reason = TuneCache::load_checked(&path).expect_err("old versions are rejected");
        assert!(reason.contains(&format!("version {}", &version[1..])), "{reason}");
        assert!(TuneCache::load(&path).is_empty(), "{version}: load degrades to empty");
    }
    // Nor is a v2 body a valid v3 one under a rewritten header.
    fs::write(&path, v2_file().replacen("v2", "v3", 1)).unwrap();
    assert!(TuneCache::load_checked(&path).is_err(), "v2 spec/stats lines are not v3 lines");

    fs::write(&path, v2_file()).unwrap();
    let requests = [
        r#"{"id":1,"app":"potrf","n":4,"emit":"summary"}"#,
        r#"{"id":2,"app":"trtri","n":4,"emit":"summary"}"#,
        r#"{"id":3,"app":"potrf","n":4,"target":"sse2"}"#,
    ];
    assert_eq!(serve_markers(&path, &requests), ["miss"; 3]);
    let saved = fs::read(&path).unwrap();
    assert!(saved.starts_with(b"slingen-tunecache v3\n") && saved.ends_with(b"end 3\n"));

    let loaded = TuneCache::load_checked(&path).unwrap();
    let resaved = tmp("v2-fixture-resaved");
    assert_eq!(loaded.save(&resaved).unwrap(), 3);
    assert!(fs::read(&resaved).unwrap() == saved, "v3 save -> load -> save is byte-identical");
    assert_eq!(serve_markers(&path, &requests), ["persisted"; 3]);
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&resaved);
}

/// A v3 cache file saved by this build, holding one potrf4 avx2 entry,
/// replays from disk. Serving it re-saves the file byte for byte.
#[test]
fn checked_in_v3_file_still_hits() {
    let fixture = fs::read(snapshot("tunecache_v3_potrf4_avx2.cache")).unwrap();
    let path = tmp("v3-snapshot");
    fs::write(&path, &fixture).unwrap();
    assert_eq!(serve_markers(&path, &[POTRF4]), ["persisted"]);
    assert!(fs::read(&path).unwrap() == fixture, "the replayed file re-saves unchanged");
    let _ = fs::remove_file(&path);
}

/// A v3 file saved before the cost table gained its lane-crossing and
/// code-footprint entries loads, but its key names the old machine, so
/// the request misses: a winner ranked by the old table is never
/// replayed. The fresh winner is saved under the new key beside the old
/// entry, and the next run replays it.
#[test]
fn v3_file_from_the_old_cost_table_misses_and_resaves_under_the_new_key() {
    old_key_file_misses_once_and_resaves(
        "tunecache_v3_potrf4_avx2_old_table.cache",
        "v3-old-table",
    );
}

/// A v3 file whose key renders the machine and pass configuration with
/// `Debug` (the key format before the bit-pattern key writers) loads, but
/// its key can never be built again, so the request misses once; the
/// winner is saved under the new key and the next run replays it.
#[test]
fn v3_file_with_debug_rendered_keys_misses_once_and_resaves_under_the_new_key() {
    old_key_file_misses_once_and_resaves(
        "tunecache_v3_potrf4_avx2_debug_key.cache",
        "v3-debug-key",
    );
}

/// Serve [`POTRF4`] over a copy of the checked-in fixture `name`, whose
/// one entry is under a key this build no longer builds: the request
/// misses, the re-saved file holds the old entry plus exactly one entry
/// under the key a fresh cache saves for the same request, and the next
/// run replays that entry from disk.
fn old_key_file_misses_once_and_resaves(name: &str, tag: &str) {
    let fixture = fs::read_to_string(snapshot(name)).unwrap();
    let old_keys = file_keys(&fixture);
    assert_eq!(old_keys.len(), 1);

    let fresh = tmp(&format!("{tag}-fresh"));
    let _ = fs::remove_file(&fresh);
    assert_eq!(serve_markers(&fresh, &[POTRF4]), ["miss"]);
    let new_keys = file_keys(&fs::read_to_string(&fresh).unwrap());
    assert_eq!(new_keys.len(), 1);
    assert_ne!(old_keys, new_keys, "{name} must hold a key this build no longer builds");

    let path = tmp(tag);
    fs::write(&path, &fixture).unwrap();
    assert_eq!(TuneCache::load_checked(&path).unwrap().len(), 1);
    assert_eq!(serve_markers(&path, &[POTRF4]), ["miss"]);
    let resaved = file_keys(&fs::read_to_string(&path).unwrap());
    assert_eq!(resaved.len(), 2, "old entry plus the new key");
    assert!(resaved.contains(&old_keys[0]), "the old entry is kept");
    assert_eq!(
        resaved.iter().filter(|k| **k == new_keys[0]).count(),
        1,
        "one entry under the new key"
    );
    assert_eq!(serve_markers(&path, &[POTRF4]), ["persisted"]);
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&fresh);
}

/// The keys of a cache file's entries, read from the `key <bytes>`
/// record that opens each entry.
fn file_keys(file: &str) -> Vec<String> {
    const OPEN: &str = "\nentry\nkey ";
    let mut keys = Vec::new();
    let mut rest = file;
    while let Some(at) = rest.find(OPEN) {
        let record = &rest[at + OPEN.len()..];
        let (len, body) = record.split_once('\n').unwrap();
        let len: usize = len.parse().unwrap();
        keys.push(body[..len].to_string());
        rest = &body[len..];
    }
    keys
}

const POTRF4: &str = r#"{"id":1,"app":"potrf","n":4,"emit":"summary"}"#;

fn snapshot(name: &str) -> String {
    format!("{}/../../tests/snapshots/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Run `slingen-serve --cache-file path` over `requests` (one worker, so
/// responses come back in order) and return each response's cache marker.
fn serve_markers(path: &std::path::Path, requests: &[&str]) -> Vec<String> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_slingen-serve"))
        .args(["--workers", "1", "--cache-file"])
        .arg(path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("slingen-serve starts");
    let mut stdin = child.stdin.take().unwrap();
    for r in requests {
        writeln!(stdin, "{r}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "slingen-serve exits cleanly");
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .map(|resp| {
            let rest = &resp[resp.find("\"cache\":\"").expect("a cache marker") + 9..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

/// Round trip with a *measured* report: the optional `M` section
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

    let path = tmp("measured");
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

/// A valid two-entry v3 file: the seed every fuzzed cache file starts
/// from.
fn valid_v3_file() -> &'static [u8] {
    static FILE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        let opts = Options::default();
        slingen::generate(&apps::potrf(3), &opts).unwrap();
        slingen::generate(&apps::trtri(3), &opts).unwrap();
        let path = tmp("fuzz-seed");
        opts.cache.save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        let _ = fs::remove_file(&path);
        bytes
    })
}

/// Byte offsets of the values on the file's framing lines (version,
/// lengths, spec, counters, entry count) and of each key's first line
/// (its program name, which orders the entries), newlines included:
/// where a mutation exercises the parser rather than a verbatim blob.
fn field_offsets(file: &[u8]) -> Vec<usize> {
    const TAGS: [&[u8]; 9] = [
        b"slingen-tunecache ",
        b"key ",
        b"program ",
        b"spec ",
        b"db ",
        b"stats ",
        b"report ",
        b"code ",
        b"end ",
    ];
    let mut out = Vec::new();
    let mut start = 0;
    for line in file.split_inclusive(|&b| b == b'\n') {
        if let Some(tag) = TAGS.iter().find(|t| line.starts_with(t)) {
            out.extend(start + tag.len()..start + line.len());
        }
        start += line.len();
    }
    out
}

/// Bytes that turn a canonical field into a near miss: a leading zero, a
/// sign, a doubled separator, a split line.
const NEAR_MISSES: &[u8] = b"0+- \n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Fuzzed cache files — random bytes (bare or behind a valid header),
    /// truncations and single-byte mutations of a valid v3 file, anywhere
    /// or on its fields — never panic `load_checked`: a file either loads
    /// and re-saves byte for byte, or is rejected with a reason.
    #[test]
    fn fuzzed_cache_files_load_and_resave_exactly_or_fail_with_a_reason(
        kind in 0u8..5,
        at in any::<usize>(),
        byte in prop_oneof![any::<u8>(), (0..NEAR_MISSES.len()).prop_map(|i| NEAR_MISSES[i])],
        noise in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let valid = valid_v3_file();
        let input: Vec<u8> = match kind {
            0 => noise,
            1 => [&b"slingen-tunecache v3\n"[..], &noise].concat(),
            2 => valid[..at % (valid.len() + 1)].to_vec(),
            3 => {
                let mut b = valid.to_vec();
                b[at % valid.len()] = byte;
                b
            }
            _ => {
                let fields = field_offsets(valid);
                let mut b = valid.to_vec();
                b[fields[at % fields.len()]] = byte;
                b
            }
        };
        let path = tmp("fuzz-case");
        fs::write(&path, &input).unwrap();
        match TuneCache::load_checked(&path) {
            Ok(cache) => {
                let resaved = tmp("fuzz-resaved");
                cache.save(&resaved).unwrap();
                prop_assert!(
                    fs::read(&resaved).unwrap() == input,
                    "kind {kind}, at {at}, byte {byte}: a loaded file must re-save byte for byte"
                );
                let _ = fs::remove_file(&resaved);
            }
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
        let _ = fs::remove_file(&path);
    }
}
