//! `kernels`: the paper's claim on this host. For a fixed set covering
//! all seven apps, generate the model-ranked winner, emit its timing
//! harness, compile it with `cc`, and time it; do the same for the
//! straightforward scalar C of `Flavor::Icc`, built with the same
//! compiler and flags.
//!
//! Set-up (generation, harness emission, compilation) is repeated and
//! its median reported. The measured window then runs every harness in a
//! seeded round-robin order; each run's `SLINGEN_CHECK` line must match
//! the VM's checksum of the same function on the same inputs. Times are
//! host-speed corrected with the ALU reference (see `host`); latency
//! quantiles are over the winners' per-kernel medians. Cycle counts in
//! the per-layer metrics are the harness's own, uncorrected.

use crate::harness::{self, HarnessRun};
use crate::host::{HostSpeed, Reference};
use crate::stats::{geomean, median, quantile, Rng};
use crate::trace::Tracer;
use crate::{program, setup_seconds, Args, Outcome};
use slingen::{generate, Options, Target};
use slingen_baselines::{baseline_codegen, Flavor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Small-to-mid sizes of every app, an odd count so the median is one
/// kernel. trsyl12 and trlya12 are where scalar C beats the model's pick.
const KERNELS: [(&str, usize); 9] = [
    ("potrf", 8),
    ("potrf", 12),
    ("trsyl", 12),
    ("trlya", 12),
    ("trtri", 12),
    ("kf", 4),
    ("gpr", 8),
    ("l1a", 8),
    ("l1a", 12),
];

const SETUP_REPS: usize = 3;
const VERIFY_TOL: f64 = 1e-8;
/// Parallel compiler jobs during set-up.
const JOBS: usize = 2;

/// One harness to build and time.
struct Harness {
    name: String,
    baseline: bool,
    source: String,
    /// VM checksum of the same function on the same inputs.
    vm_check: (f64, f64),
}

/// One built harness set.
struct Built {
    harnesses: Vec<Harness>,
    bins: Vec<PathBuf>,
    /// Per kernel: model cycles, C bytes, static instructions.
    model_cycles: Vec<f64>,
    c_bytes: usize,
    static_instrs: usize,
    verify_max: f64,
    harness_ms: f64,
    compile_ms: f64,
    snapshot: Vec<String>,
}

fn build(seed: u64, dir: &Path, out: &mut Outcome) -> Result<Built, String> {
    let mut rng = Rng::new(seed);
    let mut harnesses = Vec::new();
    let mut model_cycles = Vec::new();
    let (mut c_bytes, mut static_instrs, mut verify_max, mut harness_ms) = (0, 0, 0.0f64, 0.0);
    let mut snapshot = Vec::new();
    for &(app, n) in &KERNELS {
        let p = program(app, n);
        let name = format!("{app}{n}");
        let g = generate(&p, &Options::default()).map_err(|e| format!("{name}: {e}"))?;
        let input_seed = rng.next_u64();
        let diff = slingen::verify(&p, &g.function, g.spec.policy, g.spec.nu, input_seed);
        out.check(matches!(diff, Ok(d) if d <= VERIFY_TOL), || {
            format!("{name}: verify gave {diff:?}")
        });
        verify_max = verify_max.max(diff.unwrap_or(f64::INFINITY));
        let base =
            baseline_codegen(&p, Flavor::Icc).map_err(|e| format!("{name} baseline: {e}"))?;
        for (function, baseline) in [(&g.function, false), (&base.function, true)] {
            let inits = harness::param_inits(&p, function, input_seed);
            let t = Instant::now();
            let source = harness::harness_source(function, Target::Avx2, &inits);
            harness_ms += t.elapsed().as_secs_f64() * 1e3;
            let vm_check =
                harness::vm_checksum(function, &inits).map_err(|e| format!("{name}: vm: {e}"))?;
            let label = if baseline { format!("{name}-scalar_c") } else { name.clone() };
            harnesses.push(Harness { name: label, baseline, source, vm_check });
        }
        model_cycles.push(g.report.cycles);
        c_bytes += g.c_code.len();
        static_instrs += g.function.static_instr_count();
        snapshot.push(format!(
            "{name} spec={} c_bytes={} static_instrs={} dyn_instrs={} model_cycles={} scalar_c_static_instrs={}",
            g.spec,
            g.c_code.len(),
            g.function.static_instr_count(),
            g.report.instructions,
            g.report.cycles,
            base.function.static_instr_count()
        ));
    }

    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let next = AtomicUsize::new(0);
    // (harness index, binary, compile milliseconds)
    type Compiled = (usize, Result<PathBuf, String>, f64);
    let results: Mutex<Vec<Compiled>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(h) = harnesses.get(i) else { break };
                let t = Instant::now();
                let r = harness::compile(&h.source, dir, &format!("h{i}-{}", h.name), Target::Avx2);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                results.lock().expect("compile results lock").push((i, r, ms));
            });
        }
    });
    let mut results = results.into_inner().expect("compile results lock");
    results.sort_by_key(|r| r.0);
    let compile_ms = results.iter().map(|r| r.2).sum();
    let bins = results.into_iter().map(|(_, r, _)| r).collect::<Result<Vec<_>, _>>()?;
    Ok(Built {
        harnesses,
        bins,
        model_cycles,
        c_bytes,
        static_instrs,
        verify_max,
        harness_ms,
        compile_ms,
        snapshot,
    })
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let work = args.out.join("work").join(format!("kernels-{}", std::process::id()));
    let first_setup = Instant::now();
    let mut host = HostSpeed::new(Reference::Alu);
    let (mut setup_raw, mut setup_reps) = (Vec::new(), Vec::new());
    let (mut harness_ms, mut compile_ms) = (Vec::new(), Vec::new());
    let mut built: Option<Built> = None;
    let mut snapshots = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("rep{rep}"));
        let (b, raw, corrected) = host.time(|| build(args.seed, &dir, &mut out));
        let b = match b {
            Ok(b) => b,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&work);
                out.require(false, || {
                    format!("kernels set-up failed (is a working `cc` on PATH?): {e}")
                });
                return out;
            }
        };
        setup_raw.push(raw);
        setup_reps.push(corrected);
        harness_ms.push(b.harness_ms);
        compile_ms.push(b.compile_ms);
        snapshots.push(b.snapshot.clone());
        if let Some(prev) = built.replace(b) {
            let _ = std::fs::remove_dir_all(
                prev.bins[0].parent().expect("binaries live in a directory"),
            );
        }
    }
    let built = built.expect("at least one set-up");
    let setup_s = setup_seconds(process_start, first_setup, &setup_reps);
    for (rep, s) in snapshots.iter().enumerate().skip(1) {
        out.require(*s == snapshots[0], || format!("set-up {rep} generated different kernels"));
    }
    out.snapshot = snapshots.swap_remove(0);

    // Measured window: seeded round-robin over every harness.
    let mut rng = Rng::new(args.seed).fork(1);
    let mut tracer = Tracer::new(process_start);
    let n = built.harnesses.len();
    // Per harness: each run with its host-speed corrected nanoseconds.
    let mut runs: [Vec<Vec<(HarnessRun, f64)>>; 2] = [vec![Vec::new(); n], vec![Vec::new(); n]];
    let mut run_ms = Vec::new();
    let mut mismatches = 0u64;
    let start = Instant::now();
    let trace_from = args.trace.then_some(args.seconds / 2.0);
    let mut round = 0u64;
    while round < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let traced = trace_from.is_some_and(|t| start.elapsed().as_secs_f64() >= t);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            let h = &built.harnesses[i];
            let (r, wall, _) = host.time(|| {
                if traced {
                    tracer.span("measure.run", i as u64, |_| harness::run(&built.bins[i]))
                } else {
                    harness::run(&built.bins[i])
                }
            });
            run_ms.push(wall * 1e3);
            match r {
                Ok(r) => {
                    let ok = harness::check_matches(r.check, h.vm_check);
                    if !ok {
                        mismatches += 1;
                    }
                    out.check(ok, || {
                        format!("{}: SLINGEN_CHECK {} vs VM {}", h.name, r.check, h.vm_check.0)
                    });
                    runs[traced as usize][i].push((r, r.ns * host.factor()));
                }
                Err(e) => out.check(false, || format!("{}: {e}", h.name)),
            }
        }
        round += 1;
    }
    let _ = std::fs::remove_dir_all(&work);

    let med = |runs: &Vec<(HarnessRun, f64)>, f: fn(&(HarnessRun, f64)) -> f64| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let complete = runs[0].iter().all(|r| !r.is_empty());
    if !complete {
        out.require(false, || "some harness never produced a timing".into());
        return out;
    }
    out.tsc_hz = Some(median(&runs[0].iter().flatten().map(|r| r.0.tsc_hz).collect::<Vec<_>>()));
    let winners: Vec<usize> = (0..n).filter(|&i| !built.harnesses[i].baseline).collect();
    let ns: Vec<f64> = winners.iter().map(|&i| med(&runs[0][i], |r| r.1)).collect();
    let raw_ns: Vec<f64> = winners.iter().map(|&i| med(&runs[0][i], |r| r.0.ns)).collect();
    let cycles: Vec<f64> = winners.iter().map(|&i| med(&runs[0][i], |r| r.0.cycles)).collect();
    let base_cycles: Vec<f64> = (0..n)
        .filter(|&i| built.harnesses[i].baseline)
        .map(|i| med(&runs[0][i], |r| r.0.cycles))
        .collect();
    let rows: Vec<String> = winners
        .iter()
        .zip(&cycles)
        .zip(&base_cycles)
        .map(|((&i, c), b)| format!("{}={c:.0}/{b:.0}", built.harnesses[i].name))
        .collect();
    let (cyc, base) = (geomean(&cycles), geomean(&base_cycles));
    out.notes.push(format!(
        "kernels: {round} rounds over {n} harnesses; cycles slingen/scalar_c: {}; geomean {cyc:.1} vs {base:.1} (speedup {:.3})",
        rows.join(" "),
        base / cyc
    ));

    if !args.trace {
        out.notes.push(format!(
            "kernels uncorrected: setup_s {:.3} latency_p50_us {:.4} latency_tail_us {:.4}",
            (first_setup - process_start).as_secs_f64() + median(&setup_raw),
            median(&raw_ns) / 1e3,
            quantile(&raw_ns, 0.9) / 1e3
        ));
        out.set("setup_s", setup_s);
        out.set("latency_p50_us", median(&ns) / 1e3);
        out.set("latency_tail_us", quantile(&ns, 0.9) / 1e3);
        out.set("ops_per_s", ns.len() as f64 * 1e9 / ns.iter().sum::<f64>());
        out.set("c_bytes_total", built.c_bytes as f64);
        return out;
    }

    let traced_ns: Vec<f64> = winners
        .iter()
        .filter(|&&i| !runs[1][i].is_empty())
        .map(|&i| med(&runs[1][i], |r| r.1))
        .collect();
    if traced_ns.is_empty() {
        out.require(false, || "traced kernels run too short for both halves".into());
        return out;
    }
    let (b, w) = (median(&ns), median(&traced_ns));
    out.set("trace.untraced_p50_us", b / 1e3);
    out.set("trace.traced_p50_us", w / 1e3);
    out.set("trace.p50_shift", w / b - 1.0);
    out.set("kernel.cycles_geomean", cyc);
    out.set("baselines.cycles_geomean", base);
    out.set("kernel.speedup_vs_scalar_c", base / cyc);
    out.set("kernel.model_cycles_geomean", geomean(&built.model_cycles));
    let ratio: Vec<f64> = cycles.iter().zip(&built.model_cycles).map(|(m, p)| m / p).collect();
    out.set("kernel.measured_over_modeled", geomean(&ratio));
    out.set("kernel.static_instrs", built.static_instrs as f64);
    out.set("kernel.check_mismatch", mismatches as f64);
    out.set("vm.verify_max_diff", built.verify_max);
    out.set("unparse.harness_ms", median(&harness_ms));
    out.set("measure.compile_ms", median(&compile_ms));
    out.set("measure.run_ms", median(&run_ms));
    let path = args.out.join(format!("trace-kernels-{}.jsonl", args.seed));
    match tracer.write(&path) {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("could not write {}: {e}", path.display())),
    }
    out
}
