//! `cold_tune`: sequential cold `generate()` calls, each with a fresh
//! `TuneCache`, over the seven paper apps at sizes 4 to 64.
//!
//! Every pass runs each key once, in an order drawn from the seed; only
//! whole passes count, so every key weighs the same in every run. Each
//! latency is host-speed corrected (see `host`); a key's latency is the
//! median of its calls, quantiles are taken over the keys, and
//! throughput is that of one caller running every key once at those
//! latencies. The traced run alternates untraced and traced passes; a
//! traced pass wraps each `generate()` in one span and then, outside
//! that timed call, replays the winner through each layer's public entry
//! point to attribute the time.

use crate::host::{HostSpeed, Reference};
use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::{program, setup_seconds, Args, Outcome};
use slingen::{generate, Generated, Options, Target};
use slingen_cir::passes::optimize_with_stats;
use slingen_ir::Program;
use slingen_synth::{synthesize_program, AlgorithmDb};
use std::collections::BTreeMap;
use std::time::Instant;

/// The key set: every app, small to large. Cold time spans about 2 ms
/// (trtri4) to over half a second (potrf64) on a 2-core host.
const KEYS: [(&str, &[usize]); 7] = [
    ("potrf", &[4, 8, 16, 32, 64]),
    ("trsyl", &[4, 8, 12, 16]),
    ("trlya", &[4, 8, 16, 24]),
    ("trtri", &[4, 8, 16, 32]),
    ("kf", &[4, 8, 12]),
    ("gpr", &[4, 8, 16, 24]),
    ("l1a", &[4, 8, 16, 32]),
];

/// Generator output must match the reference semantics this closely.
const VERIFY_TOL: f64 = 1e-8;
const SETUP_REPS: usize = 3;

struct Key {
    name: String,
    program: Program,
}

/// One setup repetition: build every program, then one untimed cold
/// generation of each key, so that the allocator, the page cache of the
/// binary, and the tuner's threads are warm before timing starts.
/// Returns the keys and the raw and corrected set-up seconds.
fn setup(host: &mut HostSpeed) -> (Vec<Key>, f64, f64) {
    let t = Instant::now();
    let keys: Vec<Key> = KEYS
        .iter()
        .flat_map(|(app, sizes)| {
            sizes.iter().map(move |&n| Key { name: format!("{app}{n}"), program: program(app, n) })
        })
        .collect();
    let (mut raw, mut corrected) = (t.elapsed().as_secs_f64(), t.elapsed().as_secs_f64());
    for key in &keys {
        let (_, r, c) = host.time(|| generate(&key.program, &Options::default()));
        raw += r;
        corrected += c;
    }
    (keys, raw, corrected)
}

/// The deterministic counters of one cold generation.
fn snapshot_line(key: &str, g: &Generated) -> String {
    let t = &g.tuning;
    format!(
        "{key} spec={} c_bytes={} static_instrs={} dyn_instrs={} model_cycles={} explored={} \
         pruned={} deduped={} predicted={} lb_pruned={} blocks_reused={} reps={} db={:?}",
        g.spec,
        g.c_code.len(),
        g.function.static_instr_count(),
        g.report.instructions,
        g.report.cycles,
        t.explored,
        t.pruned,
        t.deduped,
        t.predicted,
        t.lb_pruned,
        t.blocks_reused,
        g.rep_costs.len(),
        g.db_stats
    )
}

/// Per-layer sums for one traced pass.
#[derive(Default)]
struct LayerSums {
    counts: BTreeMap<&'static str, f64>,
    opt_ms_total: f64,
    opt_ms_losers: f64,
    lgen_instrs: f64,
    opt_instrs: f64,
}

impl LayerSums {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }
}

/// Replay the winner of `g` through each layer's public entry point,
/// recording one span per call, and add its counters to `sums`.
/// Returns an error when the replay does not reproduce the shipped C.
fn attribute(
    tr: &mut Tracer,
    op: u64,
    key: &Key,
    g: &Generated,
    sums: &mut LayerSums,
) -> Result<(), String> {
    let opts = Options::default();
    let p = &key.program;
    // Stage 1 over every (policy, ν) of the space, through one shared
    // database as the tuner does.
    let mut db = AlgorithmDb::new();
    let mut groups: Vec<_> =
        opts.search.enumerate(opts.target, opts.nu).into_iter().map(|s| (s.policy, s.nu)).collect();
    groups.dedup();
    let mut winner_basic = None;
    for (policy, nu) in groups {
        let basic = tr.span("synth", op, |_| synthesize_program(p, policy, nu, &mut db));
        let basic = basic.map_err(|e| format!("{}: synth {policy}/nu{nu}: {e}", key.name))?;
        if (policy, nu) == (g.spec.policy, g.spec.nu) {
            winner_basic = Some(basic);
        }
    }
    let basic = winner_basic.ok_or_else(|| format!("{}: winner outside the space", key.name))?;
    let mut f = tr
        .span("lgen", op, |_| {
            slingen_lgen::lower_program(p, &basic, p.name(), &g.spec.lower_options())
        })
        .map_err(|e| format!("{}: lower: {e}", key.name))?;
    let lowered = f.static_instr_count() as f64;
    let config = opts.passes.for_target(opts.target);
    let stats = tr.span("passes", op, |tr| {
        optimize_with_stats(&mut f, &config, &mut |pass, dur| {
            tr.ended(&format!("passes.{pass}"), op, dur);
        })
    });
    let optimized = f.static_instr_count() as f64;
    let c = tr.span("unparse", op, |_| slingen_cir::unparse::to_c_for(&f, opts.target));
    let _digest =
        tr.span("unparse.digest", op, |_| slingen_cir::unparse::digest_c_for(&f, opts.target));
    if c != g.c_code {
        return Err(format!(
            "{}: layer replay of {} does not reproduce the shipped C",
            key.name, g.spec
        ));
    }
    let mut bufs = workload_buffers(p, &f, opts.seed);
    let report = tr
        .span("perf.measure", op, |_| slingen_perf::measure(&f, &mut bufs, None, &opts.machine))
        .map_err(|e| format!("{}: perf: {e}", key.name))?;
    tr.span("perf.lb", op, |_| slingen_perf::pressure_lower_bound(&f, &opts.machine));
    let mut counter = slingen_vm::CountingMonitor::default();
    let mut bufs = workload_buffers(p, &f, opts.seed);
    slingen_vm::execute(&f, &mut bufs, &mut counter)
        .map_err(|e| format!("{}: vm: {e}", key.name))?;

    sums.lgen_instrs += lowered;
    sums.opt_instrs += optimized;
    sums.add("synth.db_hits", g.db_stats.0 as f64);
    sums.add("synth.db_misses", g.db_stats.1 as f64);
    sums.add("passes.rounds", stats.rounds.len() as f64);
    sums.add("passes.cse_rekeyed", stats.rounds.iter().map(|r| r.cse_rekeyed as f64).sum());
    sums.add("passes.cse_reused", stats.rounds.iter().map(|r| r.cse_reused as f64).sum());
    sums.add("unparse.c_bytes", c.len() as f64);
    sums.add("perf.model_cycles", report.cycles);
    sums.add("vm.dyn_instrs", counter.total() as f64);
    let t = &g.tuning;
    sums.add("tuner.explored", t.explored as f64);
    sums.add("tuner.pruned", t.pruned as f64);
    sums.add("tuner.deduped", t.deduped as f64);
    sums.add("tuner.predicted", t.predicted as f64);
    sums.add("tuner.lb_pruned", t.lb_pruned as f64);
    sums.add("tuner.blocks_reused", t.blocks_reused as f64);
    sums.add("tuner.reps", g.rep_costs.len() as f64);
    sums.add("tuner.rep_lower_ms", g.rep_costs.iter().map(|r| r.lower_ms).sum());
    sums.add("tuner.rep_opt_ms", g.rep_costs.iter().map(|r| r.opt_ms).sum());
    sums.add("tuner.rep_measure_ms", g.rep_costs.iter().map(|r| r.measure_ms).sum());
    // The representative that produced the winner: the one with the
    // winner's spec, or (when the winner was predicted onto another
    // threshold) every representative of its (policy, ν) group.
    let exact = g.rep_costs.iter().any(|r| r.spec == g.spec);
    for r in &g.rep_costs {
        let won = if exact {
            r.spec == g.spec
        } else {
            (r.spec.policy, r.spec.nu) == (g.spec.policy, g.spec.nu)
        };
        sums.opt_ms_total += r.opt_ms;
        if !won {
            sums.opt_ms_losers += r.opt_ms;
        }
    }
    Ok(())
}

fn workload_buffers(p: &Program, f: &slingen_cir::Function, seed: u64) -> slingen_vm::BufferSet {
    let mut fb = slingen_cir::FunctionBuilder::new("probe", f.width);
    let map = slingen_lgen::BufferMap::build(p, &mut fb);
    let mut bufs = slingen_vm::BufferSet::for_function(f);
    for (op, data) in slingen::workload::inputs(p, seed) {
        bufs.set(map.buf(op), &data);
    }
    bufs
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let first_setup = Instant::now();
    let mut host = HostSpeed::new(Reference::Alloc);
    let (mut setup_raw, mut setup_reps) = (Vec::new(), Vec::new());
    let mut keys = Vec::new();
    for _ in 0..SETUP_REPS {
        let (k, raw, corrected) = setup(&mut host);
        keys = k;
        setup_raw.push(raw);
        setup_reps.push(corrected);
    }
    let setup_s = setup_seconds(process_start, first_setup, &setup_reps);
    assert_eq!(Options::default().target, Target::Avx2, "cold_tune keys assume the default target");

    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(process_start);
    // Latencies per key, split by whether the pass was traced.
    let mut lat: [Vec<Vec<f64>>; 2] = [vec![Vec::new(); keys.len()], vec![Vec::new(); keys.len()]];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); keys.len()];
    let mut factors = Vec::new();
    let mut snapshot: Vec<Option<String>> = vec![None; keys.len()];
    let mut c_bytes = vec![0usize; keys.len()];
    let mut layer_passes: Vec<LayerSums> = Vec::new();
    let mut max_diff = 0.0f64;
    let mut generations = 0u64;
    let measure_start = Instant::now();
    let mut pass = 0usize;
    let mut next_op = 0u64;
    loop {
        // Traced runs alternate: untraced passes give the overhead base.
        let traced = args.trace && pass % 2 == 1;
        let mut order: Vec<usize> = (0..keys.len()).collect();
        rng.shuffle(&mut order);

        let mut sums = LayerSums::default();
        for k in order {
            let key = &keys[k];
            let op = next_op;
            next_op += 1;
            let options = Options::default();
            let (res, dt, corrected) = host.time(|| {
                if traced {
                    tracer.span("generate", op, |_| generate(&key.program, &options))
                } else {
                    generate(&key.program, &options)
                }
            });
            let g = match res {
                Ok(g) => g,
                Err(e) => {
                    out.check(false, || format!("{}: generate failed: {e}", key.name));
                    continue;
                }
            };
            lat[traced as usize][k].push(corrected * 1e6);
            if !traced {
                raw[k].push(dt * 1e6);
                factors.push(host.factor());
            }
            generations += 1;
            let line = snapshot_line(&key.name, &g);
            match &snapshot[k] {
                None => {
                    // First sight of this key: check the output against
                    // the reference semantics on seeded inputs.
                    let vseed = rng.next_u64();
                    let diff =
                        slingen::verify(&key.program, &g.function, g.spec.policy, g.spec.nu, vseed);
                    let ok = matches!(diff, Ok(d) if d <= VERIFY_TOL);
                    if let Ok(d) = diff {
                        max_diff = max_diff.max(d);
                    }
                    out.check(ok, || format!("{}: verify {} gave {diff:?}", key.name, g.spec));
                    c_bytes[k] = g.c_code.len();
                    snapshot[k] = Some(line);
                }
                Some(first) => {
                    let same = *first == line;
                    out.check(same, || {
                        format!("{}: counters drifted: {line} vs {first}", key.name)
                    });
                }
            }
            if traced {
                let r = tracer.span("replay", op, |tr| attribute(tr, op, key, &g, &mut sums));
                out.require(r.is_ok(), || r.unwrap_err());
            }
        }
        if traced {
            layer_passes.push(sums);
        }
        pass += 1;
        let enough = if args.trace { pass >= 2 } else { pass >= 1 };
        if enough && measure_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    out.snapshot = snapshot.into_iter().flatten().collect();
    out.notes.push(format!(
        "cold_tune: {} keys x {} passes, {} generations, max verify diff {max_diff:.3e}",
        keys.len(),
        pass,
        generations
    ));
    // Every key weighs the same: quantiles are over per-key medians.
    let per_key = |lat: &Vec<Vec<f64>>| -> Vec<f64> {
        lat.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect()
    };
    let untraced = per_key(&lat[0]);
    if untraced.len() < keys.len() {
        out.require(false, || "some key never completed a cold generation".into());
        return out;
    }
    if !args.trace {
        let raw = per_key(&raw);
        out.notes.push(format!(
            "cold_tune uncorrected: setup_s {:.3} latency_p50_us {:.1} latency_tail_us {:.1}; median host-speed factor {:.3}",
            (first_setup - process_start).as_secs_f64() + median(&setup_raw),
            median(&raw),
            quantile(&raw, 0.9),
            median(&factors)
        ));
        out.set("setup_s", setup_s);
        out.set("latency_p50_us", median(&untraced));
        out.set("latency_tail_us", quantile(&untraced, 0.9));
        // One caller running every key once, back to back, at these
        // latencies.
        out.set("ops_per_s", untraced.len() as f64 * 1e6 / untraced.iter().sum::<f64>());
        out.set("c_bytes_total", c_bytes.iter().sum::<usize>() as f64);
        return out;
    }

    let traced = per_key(&lat[1]);
    let (base, with) = (median(&untraced), median(&traced));
    out.set("trace.untraced_p50_us", base);
    out.set("trace.traced_p50_us", with);
    out.set("trace.p50_shift", with / base - 1.0);
    let traced_calls = lat[1].iter().map(Vec::len).sum::<usize>();
    out.set("trace.replay_ms", tracer.total_ms("replay") / traced_calls as f64);
    out.set("vm.verify_max_diff", max_diff);
    let passes = layer_passes.len() as f64;
    for (metric, span) in [
        ("synth.ms", "synth"),
        ("lgen.ms", "lgen"),
        ("passes.ms", "passes"),
        ("passes.unroll.ms", "passes.unroll"),
        ("passes.constfold.ms", "passes.constfold"),
        ("passes.rename.ms", "passes.rename"),
        ("passes.forward.ms", "passes.forward"),
        ("passes.cse.ms", "passes.cse"),
        ("passes.contract.ms", "passes.contract"),
        ("passes.copyprop.ms", "passes.copyprop"),
        ("passes.dce.ms", "passes.dce"),
        ("unparse.ms", "unparse"),
        ("unparse.digest_ms", "unparse.digest"),
        ("perf.measure_ms", "perf.measure"),
        ("perf.lb_ms", "perf.lb"),
    ] {
        out.set(metric, tracer.total_ms(span) / passes);
    }
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut lgen_instrs, mut opt_instrs, mut opt_all, mut opt_losers) = (0.0, 0.0, 0.0, 0.0);
    for s in &layer_passes {
        for (k, v) in &s.counts {
            *counts.entry(k).or_insert(0.0) += v / passes;
        }
        lgen_instrs += s.lgen_instrs / passes;
        opt_instrs += s.opt_instrs / passes;
        opt_all += s.opt_ms_total;
        opt_losers += s.opt_ms_losers;
    }
    for (k, v) in counts {
        out.set(k, v);
    }
    out.set("lgen.instrs", lgen_instrs);
    out.set("passes.instrs", opt_instrs);
    out.set("passes.shrink", opt_instrs / lgen_instrs);
    out.set("tuner.loser_opt_share", opt_losers / opt_all);
    let path = args.out.join(format!("trace-cold_tune-{}.jsonl", args.seed));
    if let Err(e) = tracer.write(&path) {
        out.notes.push(format!("could not write {}: {e}", path.display()));
    } else {
        out.notes.push(format!("spans written to {}", path.display()));
    }
    out
}
