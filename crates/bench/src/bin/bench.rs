//! Generator-throughput tracker: measures wall time of each pipeline
//! stage (and, with `--passes`, each Stage-3 pass) on the standard
//! workloads, and emits machine-readable `BENCH_generator.json`.
//!
//! Usage: `cargo run --release -p slingen-bench --bin bench [--passes]
//! [--tune] [--serve] [--measure] [--calibrate] [--only APPS]
//! [--out PATH]`
//!
//! The JSON is a list of per-workload records:
//! `{"app", "stage1_ms", "stage2_ms", "stage3_ms", "autotune_ms", ...}`,
//! preceded by a small metadata header. `--tune` adds a per-workload
//! autotuner report — variants explored/pruned, cache hit rate, and the
//! cold-vs-cached `generate()` speedup. `--serve` adds a serve-front-end
//! report: requests/sec and p50/p99 latency at worker counts 1/4/16 on a
//! hot cache over distinct keys and on a mixed hot/cold request stream
//! (with coalescing counts). `--measure` adds the model-drift report:
//! each workload's model-ranked vs hardware-ranked winner with measured
//! cycle counts (two-stage measured autotuning; falls back per workload
//! when no C compiler works). `--calibrate` fits per-op latencies and
//! throughputs from generated microbenchmarks for Avx2/Avx2Fma and
//! records them next to the model's cost-table entries. Each PR that
//! touches the generation hot path should re-run this and compare
//! against the committed numbers (see ROADMAP.md).

use slingen::serve::Engine;
use slingen::{apps, Options, Target, TuneCache, VariantSpec};
use slingen_cir::passes::{optimize_with_stats, PassConfig, PipelineStats};
use slingen_ir::Program;
use slingen_lgen::lower_program;
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use std::time::Instant;

/// Median wall-clock milliseconds of `f` over enough repetitions for a
/// stable reading (at least 3 runs, at most ~2 s).
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let budget = Instant::now();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if samples.len() >= 3 && (budget.elapsed().as_secs_f64() > 2.0 || samples.len() >= 15) {
            break;
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct Record {
    app: String,
    stage1_ms: f64,
    stage2_ms: f64,
    stage3_ms: f64,
    autotune_ms: f64,
    static_instrs: usize,
    fixpoint: PipelineStats,
}

fn measure(name: &str, program: &Program, passes_breakdown: bool) -> Record {
    let spec = VariantSpec { policy: Policy::Lazy, nu: Options::default().nu };
    let stage1_ms = time_ms(|| {
        let mut db = AlgorithmDb::new();
        synthesize_program(program, spec.policy, spec.nu, &mut db).unwrap();
    });
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, spec.policy, spec.nu, &mut db).unwrap();
    let lopts = spec.lower_options();
    let stage2_ms = time_ms(|| {
        lower_program(program, &basic, program.name(), &lopts).unwrap();
    });
    let f0 = lower_program(program, &basic, program.name(), &lopts).unwrap();
    let cfg = PassConfig::default();
    let stage3_ms = time_ms(|| {
        let mut f = f0.clone();
        slingen_cir::passes::optimize(&mut f, &cfg);
    });
    // the breakdown observes the real pipeline, so it can never drift
    // from what `optimize` actually runs
    let mut fopt = f0.clone();
    let fixpoint = optimize_with_stats(&mut fopt, &cfg, &mut |pass, elapsed| {
        if passes_breakdown {
            eprintln!("    {pass:<10} {:8.3} ms", elapsed.as_secs_f64() * 1e3);
        }
    });
    if passes_breakdown {
        for (i, r) in fixpoint.rounds.iter().enumerate() {
            eprintln!(
                "    round {i}: cse keyed {:5}{}",
                r.cse_rekeyed,
                if r.changed { "" } else { "  (fixpoint)" }
            );
        }
        if !fixpoint.converged {
            eprintln!("    WARNING: stopped on the iteration cap, not at a fixpoint");
        }
    }
    let autotune_ms = time_ms(|| {
        // fresh options per repetition: this tracks the cold search, not
        // the TuneCache hit path (that's `--tune`'s cached_ms)
        slingen::generate(program, &Options::default()).unwrap();
    });
    Record {
        app: name.to_string(),
        stage1_ms,
        stage2_ms,
        stage3_ms,
        autotune_ms,
        static_instrs: fopt.static_instr_count(),
        fixpoint,
    }
}

struct TuneRecord {
    app: String,
    spec: String,
    explored: usize,
    pruned: usize,
    deduped: usize,
    lb_pruned: usize,
    cold_ms: f64,
    cached_ms: f64,
    hit_rate: f64,
    /// Per-representative cold-time breakdown of the reported search.
    rep_costs: Vec<slingen::RepCost>,
}

/// The autotuner report: variant-space exploration plus the cache's
/// repeat-generation speedup (cold search vs cache hit).
fn measure_tune(name: &str, program: &Program) -> TuneRecord {
    // cold: every repetition searches through a fresh cache
    let cold_ms = time_ms(|| {
        slingen::generate(program, &Options::default()).unwrap();
    });
    // warm: one shared Options -> first call populates, the rest hit
    let opts = Options::default();
    let g = slingen::generate(program, &opts).unwrap();
    let cached_ms = time_ms(|| {
        slingen::generate(program, &opts).unwrap();
    });
    // hit rate over a fixed request mix (1 cold + 10 repeats), so the
    // committed number does not depend on the timing loop's repetitions
    let rate_opts = Options::default();
    for _ in 0..11 {
        slingen::generate(program, &rate_opts).unwrap();
    }
    let (hits, misses) = rate_opts.cache.stats();
    TuneRecord {
        app: name.to_string(),
        spec: g.spec.to_string(),
        explored: g.tuning.explored,
        pruned: g.tuning.pruned,
        deduped: g.tuning.deduped,
        lb_pruned: g.tuning.lb_pruned,
        cold_ms,
        cached_ms,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        rep_costs: g.rep_costs,
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
/// workload, with the measured-over-modeled cycle ratio.
fn measure_hw(name: &str, program: &Program) -> MeasureRecord {
    let model = slingen::generate(program, &Options::default()).unwrap();
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
    let passes_breakdown = args.iter().any(|a| a == "--passes");
    let tune = args.iter().any(|a| a == "--tune");
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
        let r = measure(name, program, passes_breakdown);
        eprintln!(
            "  stage1 {:8.3} ms  stage2 {:8.3} ms  stage3 {:8.3} ms  autotune {:8.3} ms  ({} instrs)",
            r.stage1_ms, r.stage2_ms, r.stage3_ms, r.autotune_ms, r.static_instrs
        );
        records.push(r);
    }

    let mut measure_records = Vec::new();
    if hw_measure {
        for (name, program) in &workloads {
            eprintln!("hardware-measuring {name} ...");
            let r = measure_hw(name, program);
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

    let mut tune_records = Vec::new();
    if tune {
        for (name, program) in &workloads {
            eprintln!("tuning {name} ...");
            let t = measure_tune(name, program);
            eprintln!(
                "  winner {:16} explored {:2} (pruned {:2}, deduped {:2})  \
                 cold {:8.3} ms  cached {:8.4} ms  ({:.0}x)  cache hit rate {:.2}",
                t.spec,
                t.explored,
                t.pruned,
                t.deduped,
                t.cold_ms,
                t.cached_ms,
                t.cold_ms / t.cached_ms.max(1e-9),
                t.hit_rate
            );
            eprintln!("  lb_pruned {:2}", t.lb_pruned);
            for c in &t.rep_costs {
                eprintln!(
                    "    rep {:16} synth {:8.3} ms  lower {:8.3} ms  opt {:8.3} ms  \
                     measure {:8.3} ms",
                    c.spec.to_string(),
                    c.synth_ms,
                    c.lower_ms,
                    c.opt_ms,
                    c.measure_ms
                );
            }
            tune_records.push(t);
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
    carry_forward(&mut json, prev, "regenerate");
    carry_forward(&mut json, prev, "criterion_before_after");
    json.push_str(",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let rekeyed: usize = r.fixpoint.rounds.iter().map(|rd| rd.cse_rekeyed).sum();
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"stage1_ms\": {:.3}, \"stage2_ms\": {:.3}, \
             \"stage3_ms\": {:.3}, \"autotune_ms\": {:.3}, \"static_instrs\": {}, \
             \"fixpoint\": {{\"rounds\": {}, \"cse_rekeyed\": {}, \"converged\": {}}}}}{}\n",
            r.app,
            r.stage1_ms,
            r.stage2_ms,
            r.stage3_ms,
            r.autotune_ms,
            r.static_instrs,
            r.fixpoint.rounds.len(),
            rekeyed,
            r.fixpoint.converged,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]");
    if tune_records.is_empty() {
        carry_forward(&mut json, prev, "tune");
    } else {
        json.push_str(",\n  \"tune\": [\n");
        for (i, t) in tune_records.iter().enumerate() {
            let reps: Vec<String> = t
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
                 \"variants_pruned\": {}, \"variants_deduped\": {}, \
                 \"lb_pruned\": {}, \
                 \"cold_ms\": {:.3}, \
                 \"cached_ms\": {:.4}, \"cache_speedup\": {:.1}, \
                 \"cache_hit_rate\": {:.3}, \"reps\": [{}]}}{}\n",
                t.app,
                t.spec,
                t.explored,
                t.pruned,
                t.deduped,
                t.lb_pruned,
                t.cold_ms,
                t.cached_ms,
                t.cold_ms / t.cached_ms.max(1e-9),
                t.hit_rate,
                reps.join(", "),
                if i + 1 < tune_records.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]");
    }
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
