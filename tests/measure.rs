//! Measured-autotuning suite: the two-stage (model → hardware) flow, its
//! graceful degradation when no C compiler works, and the determinism
//! bounds of the hardware measurer itself.
//!
//! Tests that need a real compiler detect one at runtime and trivially
//! pass without it, so the suite stays green on compiler-less CI.

use slingen::{apps, HardwareMeasurer, MeasureConfig, Options};
use slingen_ir::Program;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Held by every test that compiles or times harnesses, so that no timed
/// run shares the CPU with a sibling test's compiles: harnesses are
/// compiled afresh by each measurer, and the tests run on parallel
/// threads.
fn hardware_lock() -> MutexGuard<'static, ()> {
    static HARDWARE: Mutex<()> = Mutex::new(());
    // a failed sibling test poisons the lock; the unit it guards holds no data
    HARDWARE.lock().unwrap_or_else(|e| e.into_inner())
}

fn cc_available() -> bool {
    std::process::Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// The seven tracked applications at sizes small enough that a full
/// search plus a handful of harness compiles stays fast.
fn tracked_apps() -> Vec<Program> {
    vec![
        apps::potrf(8),
        apps::trtri(8),
        apps::trsyl(4),
        apps::trlya(4),
        apps::kf(4),
        apps::gpr(4),
        apps::l1a(8),
    ]
}

fn hardware_options() -> Options {
    Options { measure: MeasureConfig::hardware(), ..Options::default() }
}

/// With a compiler path that cannot possibly run, hardware mode must
/// degrade to the model flow *byte-identically*: same C, same spec, same
/// report line, no measured section, no hardware trials.
#[test]
fn forced_fallback_is_byte_identical_to_model() {
    let bogus = PathBuf::from("/nonexistent/slingen-no-such-cc");
    for program in tracked_apps() {
        let model = slingen::generate(&program, &Options::default()).unwrap();
        let opts = Options {
            measure: MeasureConfig { compiler: Some(bogus.clone()), ..MeasureConfig::hardware() },
            ..Options::default()
        };
        let g = slingen::generate(&program, &opts).unwrap();
        let name = program.name();
        assert_eq!(g.c_code, model.c_code, "{name}: fallback C must match the model flow");
        assert_eq!(g.spec, model.spec, "{name}: fallback winner must match");
        assert_eq!(
            g.report.to_wire(),
            model.report.to_wire(),
            "{name}: fallback report must match"
        );
        assert_eq!(g.report.measured, None, "{name}: no measured section on fallback");
        assert!(g.hw_trials.is_empty(), "{name}: no hardware trials on fallback");
        assert_eq!(g.cycles_source(), "model");
    }
}

/// The forced fallback also holds through the service: responses for the
/// same request differ from a model-only engine *only* in fields that
/// are identical anyway — i.e. not at all.
#[test]
fn forced_fallback_serve_responses_match_model_engine() {
    use slingen::serve::Engine;
    use slingen::{Target, TuneCache};

    let request = r#"{"id":1,"app":"potrf","n":4}"#;
    let model_engine = Engine::new(TuneCache::new(), Target::Avx2);
    let hw_engine = Engine::new(TuneCache::new(), Target::Avx2).with_measure(MeasureConfig {
        compiler: Some(PathBuf::from("/nonexistent/slingen-no-such-cc")),
        ..MeasureConfig::hardware()
    });
    let a = model_engine.handle_line(request);
    let b = hw_engine.handle_line(request);
    assert_eq!(a, b, "fallback service responses must be byte-identical to model-only");
    assert!(a.contains(r#""cycles_source":"model""#));
}

/// Two-stage ranking on every tracked app: both the model-ranked and the
/// hardware-ranked winner must be members of the declared search space,
/// and the hardware winner's measured time can never lose to the model
/// winner's measured time (the model winner is always trial zero).
#[test]
fn hardware_and_model_winners_are_valid_space_members() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let _hw = hardware_lock();
    let mut reranked = 0usize;
    for program in tracked_apps() {
        let name = program.name().to_string();
        let model = slingen::generate(&program, &Options::default()).unwrap();
        let opts = hardware_options();
        let g = slingen::generate(&program, &opts).unwrap();
        let space = opts.search.enumerate(opts.target, opts.nu);
        assert!(space.contains(&model.spec), "{name}: model winner must be in the space");
        assert!(space.contains(&g.spec), "{name}: hardware winner must be in the space");
        let Some(measured) = g.report.measured else {
            eprintln!("{name}: hardware ranking fell back ({})", g.tuning.hw_ranked);
            continue;
        };
        assert!(measured.cycles.is_finite() && measured.cycles > 0.0, "{name}");
        assert!(!g.hw_trials.is_empty(), "{name}: measured winner implies recorded trials");
        assert_eq!(
            g.hw_trials[0].spec, model.spec,
            "{name}: trial zero is the model-ranked winner"
        );
        for t in &g.hw_trials {
            assert!(space.contains(&t.spec), "{name}: every trial is a space member");
            assert!(
                measured.cycles <= t.measured.cycles,
                "{name}: the measured winner must be the measured minimum"
            );
        }
        assert_eq!(g.tuning.hw_ranked, g.hw_trials.len(), "{name}: stats track the trials");
        assert_eq!(g.cycles_source(), "measured");
        reranked += 1;
    }
    assert!(
        reranked >= 2,
        "hardware ranking must complete on at least two tracked workloads (got {reranked})"
    );
}

/// Repeat measurements of one kernel through the artifact cache must be
/// positive, finite, and within a generous variance bound of each other:
/// the harness medians out scheduler noise, so a 4x spread between two
/// runs of the same binary means the measurer is broken, not the machine.
#[test]
fn hardware_measurer_repeat_runs_are_bounded() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let _hw = hardware_lock();
    let program = apps::potrf(4);
    let g = slingen::generate(&program, &Options::default()).unwrap();
    let measurer = HardwareMeasurer::new(slingen::Target::Avx2, &MeasureConfig::hardware())
        .expect("cc probed as available");
    let a = measurer.measure(&program, &g.function, 0).unwrap();
    let b = measurer.measure(&program, &g.function, 0).unwrap();
    for m in [a, b] {
        assert!(m.cycles.is_finite() && m.cycles > 0.0);
        assert!(m.ns.is_finite() && m.ns > 0.0);
        assert!(m.reps >= 1);
    }
    let (lo, hi) = if a.cycles < b.cycles { (a.cycles, b.cycles) } else { (b.cycles, a.cycles) };
    assert!(
        hi / lo < 4.0,
        "repeat runs of one kernel disagree beyond bounds: {lo:.1} vs {hi:.1} cycles"
    );
}

/// Identical emitted source must hit the artifact cache: the second
/// measurement reuses the compiled binary instead of re-invoking cc. The
/// measurer compiles into a directory of its own under the configured
/// one, and dropping the measurer leaves the configured directory empty.
#[test]
fn artifact_cache_reuses_compiled_harnesses() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let _hw = hardware_lock();
    let dir = std::env::temp_dir().join(format!("slingen-artifact-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = MeasureConfig { artifact_dir: Some(dir.clone()), ..MeasureConfig::hardware() };
    let program = apps::potrf(4);
    let g = slingen::generate(&program, &Options::default()).unwrap();
    let measurer = HardwareMeasurer::new(slingen::Target::Avx2, &cfg).unwrap();
    let entries = |d: &std::path::Path| -> Vec<PathBuf> {
        std::fs::read_dir(d).unwrap().map(|e| e.unwrap().path()).collect()
    };
    let own = entries(&dir);
    assert_eq!(own.len(), 1, "the measurer makes one directory of its own: {own:?}");
    measurer.measure(&program, &g.function, 0).unwrap();
    let after_first = entries(&own[0]).len();
    assert!(after_first >= 1, "the first measurement populates the artifact dir");
    measurer.measure(&program, &g.function, 0).unwrap();
    assert_eq!(entries(&own[0]).len(), after_first, "the second measurement adds no artifacts");
    drop(measurer);
    assert!(entries(&dir).is_empty(), "the dropped measurer leaves nothing behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Calibration fits a finite latency and throughput for every op the
/// target supports, including the in-lane and cross-lane lane moves, each
/// a plausible pipeline depth.
#[test]
fn calibration_fits_every_supported_op() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let _hw = hardware_lock();
    let cal = slingen::calibrate(slingen::Target::Avx2Fma, &MeasureConfig::hardware()).unwrap();
    let lane_moves = [("shuf", true), ("xlane", true)];
    let arith =
        ["add", "mul", "fma", "div", "sqrt"].into_iter().flat_map(|op| [(op, false), (op, true)]);
    for (op, vector) in arith.chain(lane_moves) {
        let c = cal
            .get(op, vector)
            .unwrap_or_else(|| panic!("missing calibration for {op} vector={vector}"));
        assert!(c.latency.is_finite() && c.latency > 0.0, "{op}/{vector}");
        assert!(c.throughput.is_finite() && c.throughput > 0.0, "{op}/{vector}");
        // latency is cycles/op, throughput is ops/cycle: their product
        // is the effective pipeline depth, >= ~1 for anything sane and
        // bounded by issue width times chain overlap.
        let depth = c.latency * c.throughput;
        assert!(
            (0.5..=128.0).contains(&depth),
            "{op}/{vector}: implausible latency {} x throughput {}",
            c.latency,
            c.throughput
        );
    }
}
