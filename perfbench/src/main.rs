//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold_tune|serve_hot|kernels> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>]
//! ```
//!
//! Runs one named workload, drawn from the seed, for the given number of
//! seconds; checks every output; and prints as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer ones. Lines
//! before it start with `#` and carry the host fingerprint, the
//! deterministic counter snapshot, and any named check misses. The exit
//! code is non-zero when any output check missed.

mod cold;
mod harness;
mod host;
mod kernels;
mod serve;
mod stats;
mod trace;

use slingen_ir::Program;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, with their units.
/// Each workload defines its unit operation (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ops_per_s", "1/s"),
    ("c_bytes_total", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A layer the workload
/// does not exercise reads 0, and the run names it on a `#` line.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("synth.ms", "ms"),
    ("synth.db_hits", "count"),
    ("synth.db_misses", "count"),
    ("lgen.ms", "ms"),
    ("lgen.instrs", "count"),
    ("passes.ms", "ms"),
    ("passes.unroll.ms", "ms"),
    ("passes.constfold.ms", "ms"),
    ("passes.rename.ms", "ms"),
    ("passes.forward.ms", "ms"),
    ("passes.cse.ms", "ms"),
    ("passes.contract.ms", "ms"),
    ("passes.copyprop.ms", "ms"),
    ("passes.dce.ms", "ms"),
    ("passes.rounds", "count"),
    ("passes.cse_rekeyed", "count"),
    ("passes.cse_reused", "count"),
    ("passes.instrs", "count"),
    ("passes.shrink", "share"),
    ("unparse.ms", "ms"),
    ("unparse.digest_ms", "ms"),
    ("unparse.c_bytes", "bytes"),
    ("unparse.harness_ms", "ms"),
    ("perf.measure_ms", "ms"),
    ("perf.lb_ms", "ms"),
    ("perf.model_cycles", "cycles"),
    ("vm.dyn_instrs", "count"),
    ("vm.verify_max_diff", "abs"),
    ("tuner.explored", "count"),
    ("tuner.pruned", "count"),
    ("tuner.deduped", "count"),
    ("tuner.predicted", "count"),
    ("tuner.lb_pruned", "count"),
    ("tuner.blocks_reused", "count"),
    ("tuner.reps", "count"),
    ("tuner.rep_lower_ms", "ms"),
    ("tuner.rep_opt_ms", "ms"),
    ("tuner.rep_measure_ms", "ms"),
    ("tuner.loser_opt_share", "share"),
    ("serve.parse_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.render_us", "us"),
    ("serve.resp_bytes", "bytes"),
    ("cache.hit_us.small", "us"),
    ("cache.hit_us.large", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.searches", "count"),
    ("cache.coalesced", "count"),
    ("cache.entries", "count"),
    ("cache.save_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.persisted_hit_ms", "ms"),
    ("measure.compile_ms", "ms"),
    ("measure.run_ms", "ms"),
    ("kernel.cycles_geomean", "cycles"),
    ("kernel.speedup_vs_scalar_c", "x"),
    ("kernel.model_cycles_geomean", "cycles"),
    ("kernel.measured_over_modeled", "x"),
    ("kernel.static_instrs", "count"),
    ("kernel.check_mismatch", "count"),
    ("baselines.cycles_geomean", "cycles"),
    ("trace.untraced_p50_us", "us"),
    ("trace.traced_p50_us", "us"),
    ("trace.p50_shift", "share"),
    ("trace.replay_ms", "ms"),
    ("run.failed_ratio", "share"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Named output-check misses (each also counts in `failed`).
    pub misses: Vec<String>,
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic counters: one line per key, identical on every run
    /// of the same code.
    pub snapshot: Vec<String>,
    /// TSC frequency reported by a compiled harness, when one ran.
    pub tsc_hz: Option<f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; a miss is named in the output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.misses.push(what());
        }
    }

    /// A check that is not itself an operation (e.g. a counter that must
    /// stay 0): a miss adds one failed operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.failed += 1;
            self.misses.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The paper's applications by name.
pub fn program(app: &str, n: usize) -> Program {
    use slingen::apps;
    match app {
        "potrf" => apps::potrf(n),
        "trsyl" => apps::trsyl(n),
        "trlya" => apps::trlya(n),
        "trtri" => apps::trtri(n),
        "kf" => apps::kf(n),
        "gpr" => apps::gpr(n),
        "l1a" => apps::l1a(n),
        other => panic!("unknown app `{other}`"),
    }
}

/// Setup repeated `reps` times: the median repetition plus everything
/// before the first one, in seconds.
pub fn setup_seconds(process_start: Instant, first_rep: Instant, reps: &[f64]) -> f64 {
    (first_rep - process_start).as_secs_f64() + stats::median(reps)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    std::process::Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into())
}

/// Host and toolchain fingerprint. Everything except the TSC frequency
/// must match for two results to be comparable; the frequency is
/// compared at 100 MHz resolution.
fn fingerprint(tsc_hz: Option<f64>) -> (String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cc = first_line_of("cc", "--version");
    let rustc = first_line_of("rustc", "-V");
    let tsc = tsc_hz.map_or("null".to_string(), |h| format!("{h:.0}"));
    let full = format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"cc\":\"{}\",\"rustc\":\"{}\",\"tsc_hz\":{tsc}}}",
        slingen::serve::escape_json(&cpu),
        slingen::serve::escape_json(&cc),
        slingen::serve::escape_json(&rustc)
    );
    let mut key = format!("cpu={cpu}|nproc={nproc}|cc={cc}|rustc={rustc}");
    if let Some(h) = tsc_hz {
        key.push_str(&format!("|tsc={:.1}GHz", h / 1e9));
    }
    (full, key)
}

/// Compare this run's fingerprint with the first one recorded for the
/// workload under `out`; differing hosts or toolchains are flagged as not
/// comparable.
fn comparability(out: &Path, workload: &str, key: &str) -> String {
    let path = out.join(format!("fingerprint-{workload}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == key => "comparable with earlier results in this checkout".into(),
        Ok(prev) => format!("NOT COMPARABLE: fingerprint differs from earlier results ({prev})"),
        Err(_) => {
            let _ = std::fs::create_dir_all(out).and_then(|_| std::fs::write(&path, key));
            "first result in this checkout".into()
        }
    }
}

/// Digest of the sources the benchmark is built from: every `.rs` and
/// `.toml` file under `crates/` and `perfbench/`, with its path.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "out") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut all = String::new();
    for f in files {
        all.push_str(&f.to_string_lossy());
        all.push('\n');
        all.push_str(&std::fs::read_to_string(&f).unwrap_or_default());
    }
    stats::fnv64(&all)
}

/// Compare the counter snapshot with the one recorded under `out` by an
/// earlier run of the same code on the same host, and record it when
/// there is none. A difference is an error; the new snapshot is then
/// written next to the recorded one for `diff`.
fn check_snapshot(out: &Path, workload: &str, host_key: &str, body: &str) -> Result<String, String> {
    let path = out.join(format!("snapshot-{workload}.txt"));
    let header = format!("# code {:016x} host {host_key}\n", source_digest());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.starts_with(&header) => {
            if prev[header.len()..] == *body {
                Ok("identical to the earlier run of the same code on this host".into())
            } else {
                let new = out.join(format!("snapshot-{workload}.new.txt"));
                let _ = std::fs::write(&new, format!("{header}{body}"));
                Err(format!(
                    "counter snapshot differs from the earlier run of the same code on this host: diff {} {}",
                    path.display(),
                    new.display()
                ))
            }
        }
        _ => {
            std::fs::create_dir_all(out)
                .and_then(|_| std::fs::write(&path, format!("{header}{body}")))
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
            Ok(format!("first run of this code on this host; recorded in {}", path.display()))
        }
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "cold_tune" => cold::run(&args, process_start),
        "serve_hot" => serve::run(&args, process_start),
        "kernels" => kernels::run(&args, process_start),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (cold_tune, serve_hot, kernels)");
            std::process::exit(2);
        }
    };

    if outcome.tsc_hz.is_none() {
        let dir = args.out.join("work").join(format!("tsc-{}", std::process::id()));
        outcome.tsc_hz = harness::tsc_probe(&dir);
    }
    let (fp, key) = fingerprint(outcome.tsc_hz);
    println!("# fingerprint {fp}");
    println!("# {}", comparability(&args.out, &args.workload, &key));
    let snapshot = outcome.snapshot.join("\n");
    println!(
        "# snapshot {:016x} ({} lines, identical on every repetition within this run)",
        stats::fnv64(&snapshot),
        outcome.snapshot.len()
    );
    // Only a run whose checks all passed has a complete snapshot.
    if outcome.failed == 0 {
        match check_snapshot(&args.out, &args.workload, &key, &snapshot) {
            Ok(note) => println!("# snapshot {note}"),
            Err(miss) => outcome.require(false, || miss),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }

    let (names, units): (Vec<&str>, Vec<&str>) = if args.trace {
        let unexercised: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !outcome.metrics.contains_key(n))
            .collect();
        if unexercised.len() < PER_LAYER.len() {
            outcome
                .set("run.failed_ratio", outcome.failed as f64 / outcome.attempted.max(1) as f64);
            println!(
                "# not exercised by {} (reported as 0): {}",
                args.workload,
                unexercised.join(" ")
            );
        }
        PER_LAYER.iter().copied().unzip()
    } else {
        if let Some(rss) = peak_rss_mb() {
            outcome.set("peak_rss_mb", rss);
        }
        END_TO_END.iter().copied().unzip()
    };
    // A workload that stopped before measuring reports no result at all,
    // rather than zeros.
    let measured = if args.trace {
        !outcome.metrics.is_empty()
    } else {
        names.iter().all(|n| outcome.metrics.contains_key(n))
    };
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in names.iter().zip(&units) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        outcome.require(value.is_finite(), || format!("metric {name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        parts.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    for miss in outcome.misses.iter().take(50) {
        println!("# MISS {miss}");
    }
    if !measured {
        eprintln!("perfbench: {} stopped before measuring; no result", args.workload);
        std::process::exit(1);
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
