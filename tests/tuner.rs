//! Tuner regression suite: the variant-space search must return the true
//! optimum of its space, deterministically, on every paper app.

use proptest::prelude::*;
use slingen::{apps, generate_with_spec, Options, SearchSpace, Target, VariantSpec};
use slingen_ir::Program;
use slingen_perf::pressure_lower_bound;
use slingen_synth::Policy;

fn paper_apps() -> Vec<(&'static str, Program)> {
    vec![
        ("potrf", apps::potrf(6)),
        ("trsyl", apps::trsyl(4)),
        ("trlya", apps::trlya(4)),
        ("trtri", apps::trtri(6)),
        ("kf", apps::kf(4)),
        ("gpr", apps::gpr(4)),
        ("l1a", apps::l1a(8)),
    ]
}

/// Every point of the options' search space with its modeled cycles,
/// each generated on its own, in canonical enumeration order.
fn space_points(program: &Program, opts: &Options) -> Vec<(VariantSpec, f64)> {
    opts.search
        .enumerate(opts.target, opts.nu)
        .into_iter()
        .map(|spec| (spec, generate_with_spec(program, spec, opts).unwrap().report.cycles))
        .collect()
}

/// The fastest of `points` (the first on ties): over the whole space,
/// the oracle the greedy search is checked against.
fn fastest(points: impl IntoIterator<Item = (VariantSpec, f64)>) -> (VariantSpec, f64) {
    points
        .into_iter()
        .reduce(|best, p| if p.1 < best.1 { p } else { best })
        .expect("a non-empty space")
}

/// The tuned winner (default greedy search) is at least as fast as every
/// point of the space, on all 7 paper apps — i.e. greedy finds the global
/// optimum of the default space, not just a local one.
#[test]
fn tuned_winner_bounds_every_point_on_all_apps() {
    for (name, program) in paper_apps() {
        let opts = Options::default();
        let tuned = slingen::generate(&program, &opts).unwrap();
        for spec in opts.search.enumerate(opts.target, opts.nu) {
            let point = generate_with_spec(&program, spec, &opts).unwrap();
            assert!(
                tuned.report.cycles <= point.report.cycles + 1e-9,
                "{name}: tuned {} ({}) loses to point {} ({})",
                tuned.spec,
                tuned.report.cycles,
                spec,
                point.report.cycles
            );
        }
    }
}

/// The static [`pressure_lower_bound`] behind the tuner's incumbent-aware
/// cutoff never exceeds the measured makespan, on every paper app ×
/// target × ν × policy — so skipping the VM for `lb > budget` variants
/// can only drop losers.
#[test]
fn pressure_lower_bound_holds_on_every_point() {
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            let opts = Options::for_target(target);
            for &nu in target.widths() {
                for policy in Policy::ALL {
                    let spec = VariantSpec { policy, nu };
                    let g = generate_with_spec(&program, spec, &opts).unwrap();
                    let lb = pressure_lower_bound(&g.function, &opts.machine);
                    assert!(
                        lb <= g.report.cycles + 1e-9,
                        "{name}/{target}/nu{nu}/{policy}: pressure bound {lb} exceeds measured \
                         makespan {}",
                        g.report.cycles
                    );
                }
            }
        }
    }
}

/// The acceptance bound of the search refactor: the default tuner can
/// never lose to the historical 2-policy autotuner (both policies at the
/// options' ν).
#[test]
fn tuned_winner_never_loses_to_the_two_policy_fanout() {
    for (name, program) in paper_apps() {
        let opts = Options::default();
        let tuned = slingen::generate(&program, &opts).unwrap();
        for policy in Policy::ALL {
            let spec = VariantSpec { policy, nu: opts.nu };
            let old = generate_with_spec(&program, spec, &opts).unwrap();
            assert!(
                tuned.report.cycles <= old.report.cycles + 1e-9,
                "{name}: tuned {} loses to 2-policy winner {policy}",
                tuned.spec
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: across random Cholesky sizes, the greedy winner matches
    /// the space oracle's modeled cycles (the coordinate descent does not
    /// get stuck in a local minimum of this space).
    #[test]
    fn greedy_matches_exhaustive_on_random_sizes(n in 3usize..12) {
        let program = apps::potrf(n);
        let opts = Options::default();
        let greedy = slingen::generate(&program, &opts).unwrap();
        let (spec, cycles) = fastest(space_points(&program, &opts));
        prop_assert!(
            greedy.report.cycles <= cycles + 1e-9,
            "potrf({}): greedy {} ({}) vs oracle {} ({})",
            n, greedy.spec, greedy.report.cycles, spec, cycles
        );
    }
}

/// Greedy against the full space on every target, for all seven apps at
/// n ∈ {4, 8}: the greedy winner models exactly as fast as the space
/// oracle everywhere.
#[test]
fn greedy_matches_the_space_oracle_on_every_target() {
    for target in Target::ALL {
        let opts = Options::for_target(target);
        for app in ["potrf", "trsyl", "trlya", "trtri", "kf", "gpr", "l1a"] {
            for n in [4, 8] {
                let program = apps::by_name(app, n, None).expect("known app");
                let greedy = slingen::generate(&program, &opts).unwrap().report.cycles;
                let (spec, oracle) = fastest(space_points(&program, &opts));
                let key = format!("{app}{n} {target}");
                assert_eq!(greedy, oracle, "{key}: greedy misses the oracle {spec}");
            }
        }
    }
}

/// Two `generate()` runs racing on parallel threads (separate caches)
/// must produce byte-identical C and the same winning variant; a third,
/// sequential run must agree too.
#[test]
fn parallel_generation_is_deterministic() {
    let make = || {
        let program = apps::kf(4);
        let g = slingen::generate(&program, &Options::default()).unwrap();
        (g.c_code, g.spec)
    };
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(make);
        let hb = s.spawn(make);
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.1, b.1, "winning VariantSpec must be identical");
    assert_eq!(a.0, b.0, "winning C code must be byte-identical");
    let c = make();
    assert_eq!(a.1, c.1);
    assert_eq!(a.0, c.0);
}

/// A shared cache serves repeated generation of the same kernel without
/// re-searching, and the cached result is the same artifact.
#[test]
fn cache_replays_identical_artifacts() {
    let program = apps::trtri(8);
    let opts = Options::default();
    let cold = slingen::generate(&program, &opts).unwrap();
    assert!(!cold.tuning.cache_hit);
    assert!(cold.tuning.explored >= 3);
    for _ in 0..3 {
        let warm = slingen::generate(&program, &opts).unwrap();
        assert!(warm.tuning.cache_hit);
        assert_eq!(warm.c_code, cold.c_code);
        assert_eq!(warm.spec, cold.spec);
        assert_eq!(warm.report.cycles, cold.report.cycles);
    }
    assert_eq!(opts.cache.stats(), (3, 1));
    // a different program through the same cache is a fresh entry
    let other = slingen::generate(&apps::trtri(6), &opts).unwrap();
    assert!(!other.tuning.cache_hit);
    assert_eq!(opts.cache.len(), 2);
    // options that genuinely change the searched space still miss
    let narrowed = Options {
        search: SearchSpace::default().with_nus(vec![2, 4]),
        cache: opts.cache.clone(),
        ..Options::default()
    };
    let g = slingen::generate(&program, &narrowed).unwrap();
    assert!(!g.tuning.cache_hit, "a different search space must miss");
    assert_eq!(opts.cache.len(), 3);
}

/// The cache key canonicalizes the seed coordinates: requests whose raw
/// `nu` snaps to the same ν axis provably run the same search, so they
/// share one entry instead of missing.
#[test]
fn cache_canonicalizes_equivalent_seed_options() {
    let program = apps::trtri(8);
    let opts = Options::default(); // nu 4
    let cold = slingen::generate(&program, &opts).unwrap();
    assert!(!cold.tuning.cache_hit);
    // ν = 8 snaps to 4 (the widest member of the AVX2 ν axis): the same
    // canonical search as the cold run.
    for nu in [4, 8] {
        let equiv = Options { nu, cache: opts.cache.clone(), ..Options::default() };
        let warm = slingen::generate(&program, &equiv).unwrap();
        assert!(warm.tuning.cache_hit, "ν={nu} must hit the canonical entry");
        assert_eq!(warm.c_code, cold.c_code);
        assert_eq!(warm.spec, cold.spec);
    }
    assert_eq!(opts.cache.len(), 1, "equivalent requests must share one entry");
}

/// Exploration statistics reconcile: every variant the search evaluates
/// is accounted exactly once and has one cost entry, no more than the
/// space has points; at least one of them is a measured body rather than
/// a dedupe, and `predicted` stays 0.
#[test]
fn greedy_stats_reconcile_with_the_space() {
    for (name, program) in paper_apps() {
        let opts = Options::default();
        let g = slingen::generate(&program, &opts).unwrap();
        let space = opts.search.len(opts.target, opts.nu);
        assert_eq!(
            g.tuning.explored,
            g.rep_costs.len(),
            "{name}: every evaluated variant must be accounted exactly once"
        );
        assert!(g.tuning.explored <= space, "{name}: more variants than points");
        assert!(
            g.tuning.deduped < g.tuning.explored,
            "{name}: at least one variant must be a measured representative"
        );
        assert_eq!(g.tuning.predicted, 0, "{name}: nothing is predicted");
    }
}

/// A pinned spec evaluates exactly that one point, bypasses the cache,
/// and reports its one representative's cost.
#[test]
fn pinned_policy_skips_search() {
    let program = apps::potrf(6);
    let opts = Options::default();
    let spec = VariantSpec { policy: Policy::Lazy, nu: 4 };
    let g = generate_with_spec(&program, spec, &opts).unwrap();
    assert_eq!(g.spec, spec);
    assert_eq!(g.tuning.explored, 1);
    assert_eq!(opts.cache.stats(), (0, 0), "pinned generation must not consult the cache");
    assert_eq!(g.rep_costs.len(), 1);
    assert_eq!(g.rep_costs[0].spec, spec);
}

/// A pinned ν the target lacks is an error before any stage runs — never
/// code typed for another vector unit, and never a panic.
#[test]
fn pinned_width_must_be_a_target_width() {
    let program = apps::potrf(8);
    let mut wrong = Vec::new();
    for (target, nu) in
        [(Target::Sse2, 4), (Target::Scalar, 4), (Target::Avx2, 8), (Target::Avx2, 3)]
    {
        let spec = VariantSpec { policy: Policy::Lazy, nu };
        let opts = Options::for_target(target);
        match std::panic::catch_unwind(|| generate_with_spec(&program, spec, &opts).is_ok()) {
            Ok(false) => {}
            Ok(true) => wrong.push(format!("{target} accepted ν={nu}")),
            Err(_) => wrong.push(format!("{target} panicked on ν={nu}")),
        }
    }
    assert!(wrong.is_empty(), "{wrong:?}");
}

/// An empty search space is a graceful error, not a panic.
#[test]
fn empty_search_space_errors() {
    let program = apps::potrf(6);
    let opts =
        Options { search: SearchSpace::default().with_policies(Vec::new()), ..Options::default() };
    assert!(slingen::generate(&program, &opts).is_err());
}

/// Deterministic tuner counters: for each key of a small grid (every app
/// at small sizes on the default target, plus potrf8 and l1a8 on the other
/// targets), the winning spec and the search's `explored`, `pruned`,
/// `deduped`, `predicted` and `lb_pruned` counts and number of
/// representatives must match `tests/snapshots/tune_counters.txt`. Like
/// the golden digests, a mismatch prints the fresh table so an
/// intentional change can be reviewed and committed.
#[test]
fn tune_counters_are_pinned() {
    use std::fmt::Write;
    let mut keys: Vec<(String, Program, Target)> = Vec::new();
    for (app, sizes) in [
        ("potrf", &[4, 8, 16, 32][..]),
        ("trsyl", &[4, 8, 12]),
        ("trlya", &[4, 8, 16]),
        ("trtri", &[4, 8, 16]),
        ("kf", &[4, 8]),
        ("gpr", &[4, 8, 16]),
        ("l1a", &[4, 8, 16, 32]),
    ] {
        for &n in sizes {
            let program = apps::by_name(app, n, None).expect("known app");
            keys.push((format!("{app}{n}"), program, Target::Avx2));
        }
    }
    for target in [Target::Scalar, Target::Sse2, Target::Avx2Fma] {
        keys.push(("potrf8".into(), apps::potrf(8), target));
        keys.push(("l1a8".into(), apps::l1a(8), target));
    }
    let mut fresh = String::new();
    for (key, program, target) in &keys {
        let g = slingen::generate(program, &Options::for_target(*target)).unwrap();
        let t = &g.tuning;
        let _ = writeln!(
            fresh,
            "{key} {target} spec={} explored={} pruned={} deduped={} predicted={} \
             lb_pruned={} reps={}",
            g.spec,
            t.explored,
            t.pruned,
            t.deduped,
            t.predicted,
            t.lb_pruned,
            g.rep_costs.len()
        );
    }
    let path = format!("{}/../../tests/snapshots/tune_counters.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        fresh == want,
        "tuner counters drifted from tests/snapshots/tune_counters.txt; fresh table:\n{fresh}"
    );
}
