//! The SLinGen driver: Stages 1–3 plus autotuning (paper Fig. 6).
//!
//! `generate()` drives the variant-space autotuner in [`crate::tuner`]:
//! the search space (policy × ν × loop-threshold), strategy, and cache
//! live in [`Options`]; this module owns the option/result types.
//! [`generate_with_spec`] evaluates one fixed point of the space through
//! the same search code.

use crate::measure::MeasureConfig;
use crate::tuner::{
    self, HwTrial, RepCost, Search, SearchSpace, TuneCache, TuneStats, Variant, VariantSpec,
};
use crate::Error;
use slingen_cir::passes::PassConfig;
use slingen_cir::{Function, Target};
use slingen_ir::Program;
use slingen_perf::{Machine, Report};

/// Generation options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The instruction-set target: supported ν widths, capabilities
    /// (FMA, masked memory, blends), and the cost tables behind
    /// [`Options::machine`]. The ν axis of the search space is derived
    /// from [`Target::widths`], the Stage-3 pipeline contracts
    /// multiply–add chains exactly when the target has FMA, and the
    /// unparser emits the target's intrinsic families.
    pub target: Target,
    /// Vector width ν of the target machine (4 = AVX double, 2 = SSE2,
    /// 1 = scalar). Acts as an upper bound on the ν axis of the search
    /// space.
    pub nu: usize,
    /// Stage-3 pass configuration (specialized per target at use: FMA
    /// contraction turns on when [`Options::target`] has FMA).
    pub passes: PassConfig,
    /// Machine model used for autotuning.
    pub machine: Machine,
    /// Workload seed for the autotuning measurement.
    pub seed: u64,
    /// The autotuner's search space and strategy.
    pub search: SearchSpace,
    /// Tuning cache consulted by `generate()`. Fresh per `Options` by
    /// default; clone one `Options` (or the cache handle) to share it.
    pub cache: TuneCache,
    /// Measured-autotuning configuration: model-only by default; in
    /// hardware mode the tuner re-ranks the top-K model survivors by
    /// compiling and timing their emitted C (see [`crate::measure`]).
    pub measure: MeasureConfig,
}

impl Default for Options {
    /// The historical default: the AVX2 (Sandy Bridge model) target at
    /// ν = 4.
    fn default() -> Self {
        Options::for_target(Target::Avx2)
    }
}

impl Options {
    /// Options specialized for a target: ν bounded by the target's widest
    /// vector unit, machine model built from the target's cost tables.
    pub fn for_target(target: Target) -> Options {
        Options {
            target,
            nu: target.max_width(),
            passes: PassConfig::default(),
            machine: Machine::from_target(target),
            seed: 0x51,
            search: SearchSpace::default(),
            cache: TuneCache::new(),
            measure: MeasureConfig::default(),
        }
    }

    /// The Stage-3 pass configuration specialized for this target.
    pub(crate) fn passes_for_target(&self) -> PassConfig {
        self.passes.for_target(self.target)
    }
}

/// The result of generation.
#[derive(Debug)]
pub struct Generated {
    /// The optimized C-IR function.
    pub function: Function,
    /// The emitted single-source C code.
    pub c_code: String,
    /// The full variant that won: policy, ν, loop threshold.
    pub spec: VariantSpec,
    /// The performance report of the winning variant (on the autotuning
    /// workload).
    pub report: Report,
    /// Stage-1a algorithm database statistics: (hits, misses).
    pub db_stats: (usize, usize),
    /// How the winner was found: variants explored/pruned, cache hit.
    pub tuning: TuneStats,
    /// Per-representative cold-time breakdown (lower/opt/measure, ms),
    /// in the order the search ran them. Empty on cache hits.
    pub rep_costs: Vec<RepCost>,
    /// Stage-two hardware timings in model-ranking order (the first
    /// entry is the model-ranked winner), when the measured flow ran.
    /// Empty in model mode, on hardware fallback, and on cache hits —
    /// the winner's own timing survives cache hits on
    /// `report.measured`.
    pub hw_trials: Vec<HwTrial>,
}

impl Generated {
    /// Modeled performance in flops/cycle using the function's own dynamic
    /// flop count.
    pub fn flops_per_cycle(&self) -> f64 {
        self.report.flops_per_cycle()
    }

    /// Which signal ranked this winner: `"measured"` when hardware
    /// timing produced it, `"model"` otherwise (including hardware-mode
    /// fallbacks).
    pub fn cycles_source(&self) -> &'static str {
        cycles_source(&self.report)
    }
}

/// [`Generated::cycles_source`] of a winner's report.
pub(crate) fn cycles_source(report: &Report) -> &'static str {
    if report.measured.is_some() {
        "measured"
    } else {
        "model"
    }
}

/// Emit the winner: unparse to C for the target and assemble the public
/// result.
pub(crate) fn emit(
    variant: Variant,
    target: Target,
    db_stats: (usize, usize),
    tuning: TuneStats,
    rep_costs: Vec<RepCost>,
    hw_trials: Vec<HwTrial>,
) -> Generated {
    let c_code = slingen_cir::unparse::to_c_for(&variant.function, target);
    Generated {
        function: variant.function,
        c_code,
        spec: variant.spec,
        report: variant.report,
        db_stats,
        tuning,
        rep_costs,
        hw_trials,
    }
}

/// Generate code for one fixed variant: the autotuner's search run on a
/// single point of the space, so pinned and tuned generation share
/// Stage 1, Stages 2–3, the modeled measurement and emission. Never
/// consults or fills `options.cache`.
///
/// # Errors
///
/// Returns [`Error`] if the target lacks the width `spec.nu`, or if any
/// stage rejects the program.
pub fn generate_with_spec(
    program: &Program,
    spec: VariantSpec,
    options: &Options,
) -> Result<Generated, Error> {
    if !options.target.supports_width(spec.nu) {
        return Err(Error::Synth(slingen_synth::SynthError::Unsupported(format!(
            "target {} has no vector width nu={}",
            options.target, spec.nu
        ))));
    }
    let mut search = Search::new(program, options);
    search.evaluate(&[spec], None);
    search.into_generated()
}

/// Full generation with variant-space autotuning: search the configured
/// [`SearchSpace`] (policy × ν × loop-threshold) with the configured
/// strategy, measure candidates on the machine model, and keep the
/// fastest (paper §3.3 "Autotuning" and the dashed lines of Fig. 14).
///
/// Throughput: Stage 1 runs once per distinct (policy, ν) through a
/// *single shared* [`slingen_synth::AlgorithmDb`] — policy- and
/// ν-independent derivations (the scalar leaf cases) are cached under
/// fully neutral signatures and shared across the entire space. The
/// expensive per-variant work — lowering, Stage-3 optimization, and the
/// model measurement — fans out across OS threads; the greedy strategy
/// additionally abandons variants the model proves dominated
/// (cycle-budget early-cutoff). Selection is deterministic: strict
/// minimum modeled cycles, ties broken in canonical space-enumeration
/// order, so the winning C is bit-identical across runs.
///
/// Results are cached in `options.cache` keyed by (program, machine,
/// space, options): repeating a generation through the same cache (or a
/// clone of it) is a lookup, not a search.
///
/// # Errors
///
/// Returns [`Error`] if every variant fails; individual variant failures
/// are tolerated as long as one succeeds.
pub fn generate(program: &Program, options: &Options) -> Result<Generated, Error> {
    tuner::tune(program, options).map(tuner::Tuned::into_generated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::tuner::Strategy;
    use slingen_synth::Policy;

    #[test]
    fn generates_potrf_with_autotuning() {
        let p = apps::potrf(8);
        let g = generate(&p, &Options::default()).unwrap();
        assert!(g.report.cycles > 0.0);
        assert!(g.c_code.contains("void potrf"));
        assert!(g.flops_per_cycle() > 0.0);
        // the default search explores all three dimensions
        assert!(g.tuning.explored >= 3, "explored {}", g.tuning.explored);
        // the winner's width is reflected in the emitted C
        if g.spec.nu == 4 {
            assert!(g.c_code.contains("_mm256"), "nu=4 winner must emit AVX");
        }
    }

    #[test]
    fn pinned_width_emits_avx() {
        let p = apps::potrf(8);
        let spec = VariantSpec { policy: Policy::Lazy, nu: 4, loop_threshold: 64 };
        let g = generate_with_spec(&p, spec, &Options::default()).unwrap();
        assert!(g.c_code.contains("_mm256"), "vectorized output expected");
    }

    #[test]
    fn policy_pinning_respected() {
        let p = apps::potrf(8);
        let spec = VariantSpec { policy: Policy::Eager, nu: 4, loop_threshold: 64 };
        let g = generate_with_spec(&p, spec, &Options::default()).unwrap();
        assert_eq!(g.spec, spec);
    }

    #[test]
    fn scalar_width_generates_plain_c() {
        let p = apps::gpr(4);
        let opts = Options { nu: 1, ..Options::default() };
        let g = generate(&p, &opts).unwrap();
        assert!(!g.c_code.contains("_mm256"));
        assert!(g.c_code.contains("sqrt("));
        assert_eq!(g.spec.nu, 1, "machine width bounds the search");
    }

    #[test]
    fn scalar_target_never_emits_intrinsics() {
        let p = apps::potrf(8);
        let g = generate(&p, &Options::for_target(slingen_cir::Target::Scalar)).unwrap();
        assert_eq!(g.spec.nu, 1, "scalar target has no vector widths");
        assert!(!g.c_code.contains("_mm"), "{}", g.c_code);
    }

    #[test]
    fn fma_target_contracts_through_the_pinned_path() {
        // generate_with_spec must apply the target-specialized pass
        // pipeline too, not only the tuned path
        let p = apps::kf(4);
        let opts = Options::for_target(slingen_cir::Target::Avx2Fma);
        let spec = VariantSpec { policy: Policy::Lazy, nu: 4, loop_threshold: 64 };
        let g = generate_with_spec(&p, spec, &opts).unwrap();
        let mut fmas = 0;
        g.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::SFma { .. } | slingen_cir::Instr::VFma { .. }) {
                fmas += 1;
            }
        });
        assert!(fmas > 0, "pinned FMA-target generation must contract");
        assert!(
            g.c_code.contains("fmadd") || g.c_code.contains("fnmadd") || g.c_code.contains("fma("),
            "emitted C must use fused forms"
        );
    }

    #[test]
    fn autotuner_returns_min_cycle_variant() {
        let p = apps::trsyl(8);
        let opts = Options::default();
        let auto = generate(&p, &opts).unwrap();
        for policy in Policy::ALL {
            let spec = VariantSpec { policy, nu: opts.nu, loop_threshold: 64 };
            let fixed = generate_with_spec(&p, spec, &opts).unwrap();
            assert!(
                auto.report.cycles <= fixed.report.cycles + 1e-9,
                "autotuned {} must not lose to {policy} ({})",
                auto.report.cycles,
                fixed.report.cycles
            );
        }
    }

    #[test]
    fn greedy_never_loses_to_exhaustive_seed_row() {
        // the greedy seed sweep is the historical 2-policy fan-out; the
        // final winner must be at least as good as the best seed
        let p = apps::kf(4);
        let greedy = generate(&p, &Options::default()).unwrap();
        let exhaustive_opts = Options {
            search: SearchSpace::default().with_strategy(Strategy::Exhaustive),
            ..Options::default()
        };
        let exhaustive = generate(&p, &exhaustive_opts).unwrap();
        assert!(
            greedy.report.cycles <= exhaustive.report.cycles * 1.5,
            "greedy {} wildly worse than exhaustive {}",
            greedy.report.cycles,
            exhaustive.report.cycles
        );
    }

    #[test]
    fn repeated_generation_hits_the_cache() {
        let p = apps::potrf(8);
        let opts = Options::default();
        let first = generate(&p, &opts).unwrap();
        assert!(!first.tuning.cache_hit);
        let second = generate(&p, &opts).unwrap();
        assert!(second.tuning.cache_hit);
        assert_eq!(first.c_code, second.c_code);
        assert_eq!(first.spec, second.spec);
        assert_eq!(opts.cache.stats(), (1, 1));
        assert_eq!(opts.cache.len(), 1);
    }
}
