//! Regression guards for the paper's headline *shapes*: who wins, rough
//! factors, and where bottlenecks sit.
//!
//! Two kinds of claim live here:
//!
//! * **Measured** (`measured_*`): SLinGen's emitted C and the compiled
//!   competitors' C, each built by `HardwareMeasurer` into a timing
//!   harness (`cc -std=c99 -O2 -mavx`) and timed on this host; every run's
//!   output checksum must match the VM's. Each side keeps its best of
//!   three interleaved trials. Without a C compiler these tests pass
//!   trivially, with a message.
//! * **Modeled** (everything else): the VM plus the Sandy Bridge machine
//!   model. These keep the model honest — if a change flips an ordering
//!   the paper reports, they fail.
//!
//! The paper's library competitors (MKL, Cl1ck+MKL, ReLAPACK, RECSY) have
//! no claim: none of them is available to time.
//!
//! Known failures, not asserted (six runs of the suite, each side the
//! best of three interleaved trials, 2-core Xeon, gcc 12.2, cycles):
//!
//! * The Eigen-style C beats SLinGen's winner on potrf20 (about 860-1050
//!   vs 1540-2090), potrf28 (1570-1880 vs 1720-1980) and kf12 (3460-4450
//!   vs 5270-6150). The modeled Eigen claims below still say the
//!   opposite. On trsyl20 SLinGen now wins, by 1.07-1.41x (7400-8240 vs
//!   5270-6910).
//! * At n = 12, SLinGen beats the icc-style C on trsyl by only
//!   1.10-1.30x (1640-1910 vs 1900-2490), and still loses on trlya
//!   (1460-1570 vs 990-1240, about 0.7-0.8x).

use slingen::apps::{self, nominal_flops};
use slingen::{HardwareMeasurer, MeasureConfig, Options, Target};
use slingen_baselines::{baseline_codegen, Flavor};
use slingen_bench::{measure_baseline, measure_slingen};
use slingen_cir::Function;
use slingen_ir::Program;
use slingen_perf::Resource;

/// Hardware trials per kernel; each side keeps its fastest.
const TRIALS: usize = 3;

/// Time SLinGen's winner and each competitor's C on this host, and
/// require `competitor cycles >= factor * SLinGen cycles`. Trials
/// alternate between the kernels so a change in host speed hits all of
/// them alike.
fn assert_measured_speedups(program: &Program, competitors: &[(Flavor, f64)]) {
    let measurer = match HardwareMeasurer::new(Target::Avx2, &MeasureConfig::hardware()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("skipping: {e}");
            return;
        }
    };
    let ours = slingen::generate(program, &Options::default()).expect("slingen generation");
    let codes: Vec<Function> = competitors
        .iter()
        .map(|&(flavor, _)| {
            baseline_codegen(program, flavor).expect("baseline generation").function
        })
        .collect();
    let kernels: Vec<&Function> = std::iter::once(&ours.function).chain(&codes).collect();
    let mut best = vec![f64::INFINITY; kernels.len()];
    for _ in 0..TRIALS {
        for (b, f) in best.iter_mut().zip(&kernels) {
            let m = measurer.measure(program, f, 7).expect("hardware timing");
            *b = b.min(m.cycles);
        }
    }
    let name = program.name();
    for ((flavor, factor), theirs) in competitors.iter().zip(&best[1..]) {
        assert!(
            *theirs >= factor * best[0],
            "{name} (measured): SLinGen {:.0} vs {} {theirs:.0} cycles (need {factor}x)",
            best[0],
            flavor.label()
        );
    }
}

#[test]
fn measured_potrf_beats_compilers() {
    // 2-core Xeon, gcc 12.2: about 1900 vs 7000 cycles for both
    assert_measured_speedups(&apps::potrf(28), &[(Flavor::Icc, 2.0), (Flavor::ClangPolly, 2.0)]);
}

#[test]
fn measured_kalman_filter_beats_icc() {
    // 2-core Xeon, gcc 12.2: about 5900 vs 16500 cycles
    assert_measured_speedups(&apps::kf(12), &[(Flavor::Icc, 1.5)]);
}

#[test]
fn measured_sylvester_beats_icc() {
    // 2-core Xeon, gcc 12.2, twelve runs: 5200-7100 vs 9400-11800 cycles,
    // 1.41-2.06x
    assert_measured_speedups(&apps::trsyl(20), &[(Flavor::Icc, 1.3)]);
}

#[test]
fn slingen_beats_libraries_and_compilers_on_potrf() {
    // modeled; paper §4.2: ~4.2x over icc, ~5.6x over clang/Polly. The
    // template library (Eigen) is the only library row left.
    let n = 28;
    let p = apps::potrf(n);
    let fl = nominal_flops("potrf", n, 0);
    let ours = measure_slingen(&p, n, fl).flops_per_cycle;
    for (flavor, min_speedup) in
        [(Flavor::Eigen, 1.2), (Flavor::Icc, 2.0), (Flavor::ClangPolly, 2.0)]
    {
        let theirs = measure_baseline(&p, flavor, n, fl).flops_per_cycle;
        assert!(
            ours > theirs * min_speedup,
            "potrf n={n} (modeled): SLinGen {ours:.2} vs {} {theirs:.2} (need {min_speedup}x)",
            flavor.label()
        );
    }
}

#[test]
fn divisions_bound_small_sizes_loads_or_shuffles_larger() {
    // modeled; Table 4's trend for potrf
    let p4 = apps::potrf(4);
    let small = measure_slingen(&p4, 4, nominal_flops("potrf", 4, 0));
    assert_eq!(small.report.bottleneck(), Resource::Divider);
    let p44 = apps::potrf(44);
    let large = measure_slingen(&p44, 44, nominal_flops("potrf", 44, 0));
    assert_ne!(
        large.report.bottleneck(),
        Resource::Divider,
        "divider fraction is asymptotically small"
    );
}

#[test]
fn kalman_filter_speedups_hold() {
    // modeled; paper Fig. 15a: ~3x over Eigen, ~4x over icc
    let n = 12;
    let p = apps::kf(n);
    let fl = nominal_flops("kf", n, 0);
    let ours = measure_slingen(&p, n, fl).flops_per_cycle;
    let eigen = measure_baseline(&p, Flavor::Eigen, n, fl).flops_per_cycle;
    let icc = measure_baseline(&p, Flavor::Icc, n, fl).flops_per_cycle;
    assert!(ours > eigen, "kf (modeled): SLinGen {ours:.2} vs Eigen {eigen:.2}");
    assert!(ours > 1.5 * icc, "kf (modeled): SLinGen {ours:.2} vs icc {icc:.2}");
}

#[test]
fn vectorization_ablation_nu() {
    // modeled: generated AVX (nu=4) code must beat generated scalar (nu=1) code
    // once out of the division-latency-dominated regime. (At tiny sizes a
    // single invocation is chain-bound and vectorization cannot help.)
    let n = 40;
    let p = apps::potrf(n);
    let mut opts = slingen::Options::default();
    let avx = slingen::generate(&p, &opts).unwrap();
    opts.nu = 1;
    let scalar = slingen::generate(&p, &opts).unwrap();
    assert!(
        avx.report.cycles * 1.2 < scalar.report.cycles,
        "nu=4 {} vs nu=1 {}",
        avx.report.cycles,
        scalar.report.cycles
    );
}

#[test]
fn load_store_analysis_ablation() {
    // modeled: the Fig. 12 optimization must not hurt, and shuffle/blend
    // counts must reflect it
    let n = 12;
    let p = apps::potrf(n);
    let mut opts = slingen::Options::default();
    let with = slingen::generate(&p, &opts).unwrap();
    opts.passes.load_store_analysis = false;
    let without = slingen::generate(&p, &opts).unwrap();
    assert!(
        with.report.cycles <= without.report.cycles * 1.05,
        "load/store analysis should not regress: {} vs {}",
        with.report.cycles,
        without.report.cycles
    );
}
