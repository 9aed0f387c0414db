//! Generator-throughput tracker: times a cold and a cached `generate()`
//! on the standard workloads and writes machine-readable
//! `BENCH_generator.json`.
//!
//! Usage: `cargo run --release -p slingen-bench --bin bench [--serve]
//! [--measure] [--calibrate] [--only APPS] [--out PATH]`
//!
//! The JSON holds a small metadata header — the `host` (CPU model,
//! logical cores, the first line of `cc --version`) and the process's
//! peak resident set `peak_rss_mb` (VmHWM, over the whole run) — and one
//! `results` row per workload: the winner and the search's exploration
//! counters, the cold-search and cache-hit wall times (`cold_ms`,
//! `cached_ms`, `cache_speedup`), the winner's stage times from the
//! tuner's own ledger ([`slingen::RepCost`]: `synth_ms`, `lower_ms`,
//! `opt_ms`, `measure_ms`, each the median over the cold repetitions),
//! the winner's `static_instrs`, the Stage-3 `fixpoint` (the winner's
//! rounds, and whether every variant the search ran converged) and every
//! variant's ledger entry (`reps`). The per-pass Stage-3 breakdown is
//! perfbench's `--trace 1` (see `perfbench/`). `--serve` adds a
//! serve-front-end report: requests/sec and p50/p99 latency at worker
//! counts 1/4/16 on a hot cache over distinct keys and on a mixed
//! hot/cold request stream (with coalescing counts). `--measure` adds the
//! model-drift report: each workload's model-ranked vs hardware-ranked
//! winner with measured cycle counts (two-stage measured autotuning;
//! falls back per workload when no C compiler works). `--calibrate` fits
//! per-op latencies and throughputs from generated microbenchmarks for
//! Avx2/Avx2Fma and records them next to the model's cost-table entries.
//! Each PR that touches the generation hot path should re-run this and
//! compare against the committed numbers (see ROADMAP.md).

use slingen::serve::Engine;
use slingen::{apps, Generated, Options, RepCost, Target, TuneCache};
use slingen_ir::Program;
use std::time::Instant;

/// Run `f` enough times for a stable median (at least 3 runs, at most 15
/// or about 2 s) and return each run's wall time in milliseconds.
fn time_runs(mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 3 || (samples.len() < 15 && budget.elapsed().as_secs_f64() <= 2.0) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The winner's own entry in a cold search's ledger.
fn winner_cost(g: &Generated) -> RepCost {
    *g.rep_costs
        .iter()
        .find(|r| r.spec == g.spec)
        .expect("a cold search's winner has a ledger entry")
}

struct Record {
    app: String,
    /// The last cold search (every repetition ships the same winner).
    cold: Generated,
    cold_ms: f64,
    cached_ms: f64,
    /// The winner's stage times, each the median over the cold
    /// repetitions: synth, lower, opt, measure.
    stages: [f64; 4],
}

/// Time cold searches (a fresh cache each) and then cache hits on the
/// last search's cache; the stage times are the tuner's own ledger.
fn measure(name: &str, program: &Program) -> Record {
    let mut last = None;
    let mut won = Vec::new();
    let cold_ms = median(time_runs(|| {
        let opts = Options::default();
        let g = slingen::generate(program, &opts).unwrap();
        won.push(winner_cost(&g));
        last = Some((opts, g));
    }));
    let (opts, cold) = last.expect("at least one cold run");
    let cached_ms = median(time_runs(|| {
        slingen::generate(program, &opts).unwrap();
    }));
    let stage = |f: fn(&RepCost) -> f64| median(won.iter().map(f).collect());
    Record {
        app: name.to_string(),
        cold,
        cold_ms,
        cached_ms,
        stages: [
            stage(|r| r.synth_ms),
            stage(|r| r.lower_ms),
            stage(|r| r.opt_ms),
            stage(|r| r.measure_ms),
        ],
    }
}

struct ServeScenario {
    scenario: String,
    /// Worker threads actually spawned: min(requested, available cores).
    workers: usize,
    /// The scenario's nominal parallelism, before the core cap.
    requested_workers: usize,
    requests: usize,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    searches: u64,
    coalesced: u64,
}

/// Drive `requests` through `engine.handle_line` from a pool of
/// `workers` threads pulling off one shared queue, recording the
/// per-request latency distribution.
fn run_serve_scenario(
    scenario: &str,
    engine: &Engine,
    lines: &[String],
    requested_workers: usize,
) -> ServeScenario {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // Oversubscribing a small box just measures scheduler thrash, not
    // the engine: cap the pool at the machine's parallelism and record
    // both numbers so the JSON stays honest about what actually ran.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = requested_workers.min(cores);
    let searches0 = engine.cache().searches();
    let coalesced0 = engine.cache().totals().coalesced;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else { break };
                        let t = Instant::now();
                        let resp = engine.handle_line(line);
                        assert!(resp.contains("\"ok\":true"), "serve bench request failed: {resp}");
                        mine.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    ServeScenario {
        scenario: scenario.to_string(),
        workers,
        requested_workers,
        requests: lines.len(),
        requests_per_sec: lines.len() as f64 / wall_s.max(1e-9),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        searches: engine.cache().searches() - searches0,
        coalesced: engine.cache().totals().coalesced - coalesced0,
    }
}

/// The serve-front-end report: requests/sec and latency percentiles at
/// worker counts 1/4/16, on (a) a pre-warmed cache over distinct keys —
/// the pure replay path — and (b) a mixed hot/cold stream with duplicate
/// keys in flight — searches plus coalescing.
fn measure_serve() -> Vec<ServeScenario> {
    let request =
        |app: &str, n: usize| format!("{{\"app\":\"{app}\",\"n\":{n},\"emit\":\"summary\"}}");
    // 12 distinct small kernels
    let keys: Vec<String> =
        (3..=8).flat_map(|n| [request("potrf", n), request("trtri", n)]).collect();
    let mut scenarios = Vec::new();
    for &workers in &[1usize, 4, 16] {
        // (a) hot cache, distinct keys round-robin: every request replays
        let hot_engine = Engine::new(TuneCache::new(), Target::Avx2);
        for line in &keys {
            let resp = hot_engine.handle_line(line); // pre-warm
            assert!(resp.contains("\"ok\":true"), "warmup failed: {resp}");
        }
        let stream: Vec<String> = (0..1200).map(|i| keys[i % keys.len()].clone()).collect();
        let s = run_serve_scenario("hot_distinct", &hot_engine, &stream, workers);
        assert_eq!(s.searches, 0, "a hot cache must not search");
        scenarios.push(s);

        // (b) mixed hot/cold: fresh cache, 8 distinct keys x 8 copies —
        // duplicates in flight coalesce, repeats hit
        let mixed_engine = Engine::new(TuneCache::new(), Target::Avx2);
        let stream: Vec<String> = (0..64).map(|i| request("potrf", 3 + (i % 8))).collect();
        scenarios.push(run_serve_scenario("mixed_hot_cold", &mixed_engine, &stream, workers));
    }
    scenarios
}

struct MeasureRecord {
    app: String,
    model_spec: String,
    model_cycles: f64,
    /// Hardware-ranked winner and its model prediction; equals the model
    /// row when stage two fell back.
    hw_spec: String,
    hw_model_cycles: f64,
    /// Measured time of the hardware winner, when stage two ran.
    measured: Option<slingen_perf::MeasuredTime>,
    /// Measured time of the *model* winner (trial zero of the re-rank).
    model_winner_measured: Option<f64>,
    trials: usize,
}

/// The model-drift report: model-ranked vs hardware-ranked winner per
/// workload, with the measured-over-modeled cycle ratio. `model` is the
/// workload's model-ranked search.
fn measure_hw(name: &str, program: &Program, model: &Generated) -> MeasureRecord {
    let opts = Options { measure: slingen::MeasureConfig::hardware(), ..Options::default() };
    let g = slingen::generate(program, &opts).unwrap();
    MeasureRecord {
        app: name.to_string(),
        model_spec: model.spec.to_string(),
        model_cycles: model.report.cycles,
        hw_spec: g.spec.to_string(),
        hw_model_cycles: g.report.cycles,
        measured: g.report.measured,
        model_winner_measured: g.hw_trials.first().map(|t| t.measured.cycles),
        trials: g.hw_trials.len(),
    }
}

struct CalRecord {
    target: Target,
    cal: slingen::Calibration,
}

/// The model's cost-table entry corresponding to one calibrated op, for
/// the drift columns: div/sqrt map to the divider charges, the pipelined
/// ops to their latencies, and the cross-lane permute to the shuffle step
/// plus the lane-crossing surcharge.
fn model_latency_for(target: Target, op: &str, vector: bool) -> f64 {
    let m = slingen_perf::Machine::from_target(target);
    match (op, vector) {
        ("div" | "sqrt", false) => m.div_scalar_cycles,
        ("div" | "sqrt", true) => m.div_vector_cycles,
        ("add", _) => m.fadd_latency,
        ("mul", _) => m.fmul_latency,
        ("shuf", _) => m.shuffle_latency,
        ("xlane", _) => m.shuffle_latency + m.cross_lane_latency,
        _ => m.fma_latency,
    }
}

/// A JSON string literal, or `null`.
fn json_str(s: Option<&str>) -> String {
    s.map_or("null".into(), |s| format!("\"{}\"", slingen::serve::escape_json(s)))
}

/// The `host` object: CPU model, logical core count, and the first line
/// of `cc --version` (`null` when `cc` is missing), so wall times are
/// only compared across runs on the same host and toolchain.
fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cc = std::process::Command::new("cc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or("").to_string());
    format!(
        "{{\"cpu\": {}, \"cores\": {cores}, \"cc\": {}}}",
        json_str(cpu),
        json_str(cc.as_deref())
    )
}

/// This process's peak resident set (VmHWM) in MB, when the OS reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Extract `"key": <value>` (string, object, or array value) from the top
/// level of a previously written JSON document, returning the raw text.
fn extract_top_level(src: &str, key: &str) -> Option<String> {
    let kq = format!("\"{key}\":");
    let start = src.find(&kq)?;
    let vstart = start + kq.len();
    let rest = src[vstart..].trim_start();
    let voff = src.len() - src[vstart..].len() + (src[vstart..].len() - rest.len());
    let delims = match rest.chars().next()? {
        '{' => Some(('{', '}')),
        '[' => Some(('[', ']')),
        _ => None,
    };
    if let Some((open, close)) = delims {
        // bracket-count to the matching close (no nested strings with
        // brackets are emitted by this tool)
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Some(src[start..=voff + i].to_string());
                }
            }
        }
        None
    } else if let Some(stripped) = rest.strip_prefix('"') {
        let close = stripped.find('"')?;
        Some(src[start..=voff + close + 1].to_string())
    } else {
        None
    }
}

/// Keep the top-level section `key` of the previous output `prev` on a
/// refresh that did not regenerate it: append `,\n  "key": <value>`.
fn carry_forward(json: &mut String, prev: Option<&str>, key: &str) {
    if let Some(section) = prev.and_then(|p| extract_top_level(p, key)) {
        json.push_str(",\n  ");
        json.push_str(&section);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let serve = args.iter().any(|a| a == "--serve");
    let hw_measure = args.iter().any(|a| a == "--measure");
    let calibrate = args.iter().any(|a| a == "--calibrate");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => p.clone(),
            _ => {
                eprintln!("error: --out requires a path argument");
                std::process::exit(2);
            }
        },
        None => "BENCH_generator.json".to_string(),
    };

    let mut workloads: Vec<(String, Program)> = vec![
        ("potrf8".into(), apps::potrf(8)),
        ("potrf16".into(), apps::potrf(16)),
        ("potrf32".into(), apps::potrf(32)),
        ("potrf64".into(), apps::potrf(64)),
        ("kf8".into(), apps::kf(8)),
    ];
    // `--only a,b` restricts the tracked set (smoke runs); a filtered
    // run should go to `--out /tmp/...`, not the committed JSON.
    if let Some(i) = args.iter().position(|a| a == "--only") {
        let keep: Vec<String> = match args.get(i + 1) {
            Some(list) if !list.starts_with("--") => list.split(',').map(str::to_string).collect(),
            _ => {
                eprintln!("error: --only requires a comma-separated workload list");
                std::process::exit(2);
            }
        };
        for k in &keep {
            if !workloads.iter().any(|(n, _)| n == k) {
                eprintln!("error: unknown workload `{k}` for --only");
                std::process::exit(2);
            }
        }
        workloads.retain(|(n, _)| keep.contains(n));
    }

    let mut records = Vec::new();
    for (name, program) in &workloads {
        eprintln!("measuring {name} ...");
        let r = measure(name, program);
        let (g, t) = (&r.cold, &r.cold.tuning);
        let [synth_ms, lower_ms, opt_ms, measure_ms] = r.stages;
        eprintln!(
            "  winner {:16} explored {:2} (pruned {:2}, deduped {:2}, lb_pruned {:2})  \
             cold {:8.3} ms  cached {:8.4} ms  ({:.0}x)",
            g.spec.to_string(),
            t.explored,
            t.pruned,
            t.deduped,
            t.lb_pruned,
            r.cold_ms,
            r.cached_ms,
            r.cold_ms / r.cached_ms.max(1e-9)
        );
        eprintln!(
            "  winner stages: synth {synth_ms:8.3} ms  lower {lower_ms:8.3} ms  \
             opt {opt_ms:8.3} ms  measure {measure_ms:8.3} ms  ({} instrs)",
            g.function.static_instr_count()
        );
        for c in &g.rep_costs {
            eprintln!(
                "    rep {:16} synth {:8.3} ms  lower {:8.3} ms  opt {:8.3} ms  \
                 measure {:8.3} ms  rounds {}{}",
                c.spec.to_string(),
                c.synth_ms,
                c.lower_ms,
                c.opt_ms,
                c.measure_ms,
                c.rounds,
                if c.converged { "" } else { "  (iteration cap)" }
            );
        }
        records.push(r);
    }

    let mut measure_records = Vec::new();
    if hw_measure {
        for ((name, program), rec) in workloads.iter().zip(&records) {
            eprintln!("hardware-measuring {name} ...");
            let r = measure_hw(name, program, &rec.cold);
            match (r.measured, r.model_winner_measured) {
                (Some(m), Some(mw)) => eprintln!(
                    "  model winner {:16} {:7.1} cy modeled / {:7.1} cy measured; \
                     hw winner {:16} {:7.1} cy measured ({:.2}x modeled, {} trials)",
                    r.model_spec,
                    r.model_cycles,
                    mw,
                    r.hw_spec,
                    m.cycles,
                    m.cycles / r.hw_model_cycles.max(1e-9),
                    r.trials
                ),
                _ => eprintln!(
                    "  model winner {:16} {:7.1} cy modeled; hardware ranking fell back",
                    r.model_spec, r.model_cycles
                ),
            }
            measure_records.push(r);
        }
    }

    let mut cal_records = Vec::new();
    if calibrate {
        for target in [Target::Avx2, Target::Avx2Fma] {
            eprintln!("calibrating {} ...", target.name());
            match slingen::calibrate(target, &slingen::MeasureConfig::hardware()) {
                Ok(cal) => {
                    for c in cal.ops.iter() {
                        eprintln!(
                            "  {:5} {}  lat {:6.2} cy  thr {:6.2} op/cy  (model {:5.1} cy)",
                            c.op,
                            if c.vector { "vec" } else { "scl" },
                            c.latency,
                            c.throughput,
                            model_latency_for(target, c.op, c.vector)
                        );
                    }
                    cal_records.push(CalRecord { target, cal });
                }
                Err(e) => eprintln!("  calibration unavailable: {e}"),
            }
        }
    }

    let serve_records = if serve {
        eprintln!("serving (hot_distinct + mixed_hot_cold at workers 1/4/16) ...");
        let records = measure_serve();
        for s in &records {
            eprintln!(
                "  {:14} workers {:2} (req {:2})  {:8.0} req/s  p50 {:8.4} ms  \
                 p99 {:8.4} ms  searches {:2}  coalesced {:2}",
                s.scenario,
                s.workers,
                s.requested_workers,
                s.requests_per_sec,
                s.p50_ms,
                s.p99_ms,
                s.searches,
                s.coalesced
            );
        }
        records
    } else {
        Vec::new()
    };

    // Sections of an existing file survive the rewrite: the hand-maintained
    // ones (regeneration notes, before/after history) always, the
    // measured ones when this run skipped the flag that produces them.
    let prev = std::fs::read_to_string(&out_path).ok();
    let prev = prev.as_deref();
    let mut json = String::from("{\n  \"benchmark\": \"slingen-generator-throughput\",\n");
    json.push_str("  \"unit\": \"wall-clock milliseconds (median)\"");
    json.push_str(&format!(",\n  \"host\": {}", host_json()));
    let peak = peak_rss_mb().map_or("null".into(), |mb| format!("{mb:.1}"));
    json.push_str(&format!(",\n  \"peak_rss_mb\": {peak}"));
    carry_forward(&mut json, prev, "regenerate");
    carry_forward(&mut json, prev, "criterion_before_after");
    json.push_str(",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let (g, t) = (&r.cold, &r.cold.tuning);
        let [synth_ms, lower_ms, opt_ms, measure_ms] = r.stages;
        let reps: Vec<String> = g
            .rep_costs
            .iter()
            .map(|c| {
                format!(
                    "{{\"spec\": \"{}\", \"synth_ms\": {:.3}, \"lower_ms\": {:.3}, \
                     \"opt_ms\": {:.3}, \"measure_ms\": {:.3}}}",
                    c.spec, c.synth_ms, c.lower_ms, c.opt_ms, c.measure_ms
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"winner\": \"{}\", \"variants_explored\": {}, \
             \"variants_pruned\": {}, \"variants_deduped\": {}, \"lb_pruned\": {}, \
             \"cold_ms\": {:.3}, \"cached_ms\": {:.4}, \"cache_speedup\": {:.1}, \
             \"synth_ms\": {synth_ms:.3}, \"lower_ms\": {lower_ms:.3}, \
             \"opt_ms\": {opt_ms:.3}, \"measure_ms\": {measure_ms:.3}, \"static_instrs\": {}, \
             \"fixpoint\": {{\"rounds\": {}, \"converged\": {}}}, \"reps\": [{}]}}{}\n",
            r.app,
            g.spec,
            t.explored,
            t.pruned,
            t.deduped,
            t.lb_pruned,
            r.cold_ms,
            r.cached_ms,
            r.cold_ms / r.cached_ms.max(1e-9),
            g.function.static_instr_count(),
            winner_cost(g).rounds,
            g.rep_costs.iter().all(|c| c.converged),
            reps.join(", "),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]");
    if measure_records.is_empty() {
        carry_forward(&mut json, prev, "model_vs_measured");
    } else {
        json.push_str(",\n  \"model_vs_measured\": [\n");
        for (i, r) in measure_records.iter().enumerate() {
            match (r.measured, r.model_winner_measured) {
                (Some(m), Some(mw)) => json.push_str(&format!(
                    "    {{\"app\": \"{}\", \"source\": \"measured\", \
                     \"model_winner\": \"{}\", \"model_cycles\": {:.1}, \
                     \"model_winner_measured_cycles\": {:.1}, \
                     \"hw_winner\": \"{}\", \"hw_model_cycles\": {:.1}, \
                     \"measured_cycles\": {:.1}, \"measured_ns\": {:.1}, \
                     \"measured_over_modeled\": {:.3}, \"trials\": {}}}{}\n",
                    r.app,
                    r.model_spec,
                    r.model_cycles,
                    mw,
                    r.hw_spec,
                    r.hw_model_cycles,
                    m.cycles,
                    m.ns,
                    m.cycles / r.hw_model_cycles.max(1e-9),
                    r.trials,
                    if i + 1 < measure_records.len() { "," } else { "" }
                )),
                _ => json.push_str(&format!(
                    "    {{\"app\": \"{}\", \"source\": \"model\", \
                     \"model_winner\": \"{}\", \"model_cycles\": {:.1}}}{}\n",
                    r.app,
                    r.model_spec,
                    r.model_cycles,
                    if i + 1 < measure_records.len() { "," } else { "" }
                )),
            }
        }
        json.push_str("  ]");
    }
    if cal_records.is_empty() {
        carry_forward(&mut json, prev, "calibration");
    } else {
        json.push_str(",\n  \"calibration\": [\n");
        for (i, r) in cal_records.iter().enumerate() {
            let ops: Vec<String> = r
                .cal
                .ops
                .iter()
                .map(|c| {
                    format!(
                        "{{\"op\": \"{}\", \"vector\": {}, \"latency_cycles\": {:.2}, \
                         \"throughput_ops_per_cycle\": {:.2}, \"model_cycles\": {:.1}}}",
                        c.op,
                        c.vector,
                        c.latency,
                        c.throughput,
                        model_latency_for(r.target, c.op, c.vector)
                    )
                })
                .collect();
            json.push_str(&format!(
                "    {{\"target\": \"{}\", \"ops\": [\n      {}\n    ]}}{}\n",
                r.target.name(),
                ops.join(",\n      "),
                if i + 1 < cal_records.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]");
    }
    if serve_records.is_empty() {
        carry_forward(&mut json, prev, "serve");
    } else {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        json.push_str(&format!(",\n  \"serve\": {{\"cores\": {cores}, \"scenarios\": [\n"));
        for (i, s) in serve_records.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"workers\": {}, \
                 \"requested_workers\": {}, \"requests\": {}, \
                 \"requests_per_sec\": {:.0}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"searches\": {}, \"coalesced\": {}}}{}\n",
                s.scenario,
                s.workers,
                s.requested_workers,
                s.requests,
                s.requests_per_sec,
                s.p50_ms,
                s.p99_ms,
                s.searches,
                s.coalesced,
                if i + 1 < serve_records.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]}");
    }
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
