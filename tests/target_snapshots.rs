//! Golden C snapshots per target, and the cross-target acceptance
//! criteria of the retargetable-backend refactor:
//!
//! * the emitted source for a pinned potrf8 variant is byte-stable per
//!   target (scalar / SSE2 / AVX2 / AVX2+FMA) — `tests/snapshots/`;
//! * each target's output contains/omits the fused-multiply intrinsic
//!   family as appropriate (potrf's updates contract to
//!   `_mm256_fnmadd_pd`, the `c - a*b` form);
//! * on `Avx2Fma` the contraction pass strictly reduces modeled cycles
//!   vs. `Avx2` on potrf16 and kf8 (the machines differ only in FMA, so
//!   the delta isolates contraction);
//! * `generate()` on the default target is the AVX2 target — unchanged
//!   historical behavior;
//! * every paper app × target × ν × policy emits the C and measures the
//!   `Report` pinned in `tests/snapshots/golden_digests.txt`;
//! * the tuner's C-IR fingerprint groups the bodies of one search exactly
//!   as the emitted-C digest does;
//! * Stage 3 converges within three rounds, and its work and the vector
//!   loads left waiting on store forwarding are pinned in
//!   `tests/snapshots/stage3_counters.txt`.

use slingen::{apps, generate_with_spec, Options, Target, VariantSpec};
use slingen_cir::passes::{optimize_with_stats, PipelineStats};
use slingen_cir::{Function, Instr};
use slingen_ir::Program;
use slingen_lgen::{lower_program, LowerOptions};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use slingen_vm::{execute, BufferSet, Event, Monitor};
use std::collections::HashMap;

/// The pinned variant each snapshot was generated from: Lazy policy at
/// the target's widest ν.
fn snapshot_generated(target: Target) -> slingen::Generated {
    let opts = Options::for_target(target);
    let spec = VariantSpec { policy: Policy::Lazy, nu: target.max_width() };
    generate_with_spec(&apps::potrf(8), spec, &opts).expect("potrf8 generates")
}

fn snapshot_path(target: Target) -> String {
    // the test is attached to crates/core; snapshots live at the repo root
    format!("{}/../../tests/snapshots/potrf8_{target}.c", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn potrf8_c_is_byte_stable_per_target() {
    for target in Target::ALL {
        let want = std::fs::read_to_string(snapshot_path(target))
            .unwrap_or_else(|e| panic!("missing snapshot for {target}: {e}"));
        let got = snapshot_generated(target).c_code;
        assert_eq!(
            got, want,
            "{target}: emitted C drifted from tests/snapshots/potrf8_{target}.c — if the \
             change is intentional, regenerate the snapshot and note it in the PR"
        );
    }
}

#[test]
fn snapshots_use_the_right_intrinsic_families() {
    let scalar = std::fs::read_to_string(snapshot_path(Target::Scalar)).unwrap();
    assert!(!scalar.contains("_mm"), "scalar target must not use intrinsics");
    assert!(!scalar.contains("fma("), "no contraction on a non-FMA target");

    let sse2 = std::fs::read_to_string(snapshot_path(Target::Sse2)).unwrap();
    assert!(sse2.contains("_mm_") && !sse2.contains("_mm256"), "sse2 is the 128-bit family");
    assert!(!sse2.contains("maskload") && !sse2.contains("maskstore"), "no masked mem on SSE2");
    assert!(!sse2.contains("_mm_blend_pd"), "no immediate blends on SSE2");
    assert!(!sse2.contains("fmadd") && !sse2.contains("fmsub"), "no FMA on SSE2");

    let avx2 = std::fs::read_to_string(snapshot_path(Target::Avx2)).unwrap();
    assert!(avx2.contains("_mm256_"), "avx2 is the 256-bit family");
    assert!(
        !avx2.contains("fmadd") && !avx2.contains("fnmadd") && !avx2.contains("fmsub"),
        "the default target must omit every fused form"
    );

    let fma = std::fs::read_to_string(snapshot_path(Target::Avx2Fma)).unwrap();
    assert!(
        fma.contains("_mm256_fnmadd_pd"),
        "potrf's c - a*b updates must contract to fnmadd on the FMA target"
    );
}

/// The headline acceptance criterion: with otherwise-identical cost
/// tables, turning on FMA (and with it the contraction pass) strictly
/// reduces the tuned modeled cycle count on potrf16 and kf8.
#[test]
fn avx2fma_strictly_beats_avx2_on_potrf16_and_kf8() {
    for (name, program) in [("potrf16", apps::potrf(16)), ("kf8", apps::kf(8))] {
        let base = slingen::generate(&program, &Options::for_target(Target::Avx2)).unwrap();
        let fused = slingen::generate(&program, &Options::for_target(Target::Avx2Fma)).unwrap();
        assert!(
            fused.report.cycles < base.report.cycles,
            "{name}: Avx2Fma ({}) must strictly beat Avx2 ({})",
            fused.report.cycles,
            base.report.cycles
        );
        let mut fmas = 0usize;
        fused.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::SFma { .. } | slingen_cir::Instr::VFma { .. }) {
                fmas += 1;
            }
        });
        assert!(fmas > 0, "{name}: the FMA winner must actually contain fused instructions");
        let mut base_fmas = 0usize;
        base.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::SFma { .. } | slingen_cir::Instr::VFma { .. }) {
                base_fmas += 1;
            }
        });
        assert_eq!(base_fmas, 0, "{name}: the non-FMA target must never emit fused instructions");
    }
}

/// `Options::default()` is the AVX2 target: same machine, same search
/// space, same winner — the pre-refactor behavior is the default path.
#[test]
fn default_options_are_the_avx2_target() {
    let d = Options::default();
    assert_eq!(d.target, Target::Avx2);
    assert_eq!(d.nu, 4);
    let p = apps::potrf(8);
    let a = slingen::generate(&p, &Options::default()).unwrap();
    let b = slingen::generate(&p, &Options::for_target(Target::Avx2)).unwrap();
    assert_eq!(a.c_code, b.c_code);
    assert_eq!(a.spec, b.spec);
    assert_eq!(a.report.cycles, b.report.cycles);
}

/// The ν axis of the search space is derived from the target's widths: a
/// Scalar target never explores vector variants, SSE2 stops at ν = 2.
#[test]
fn search_space_nu_axis_follows_target_widths() {
    for (target, max_nu) in
        [(Target::Scalar, 1), (Target::Sse2, 2), (Target::Avx2, 4), (Target::Avx2Fma, 4)]
    {
        let opts = Options::for_target(target);
        let specs = opts.search.enumerate(opts.target, opts.nu);
        assert!(!specs.is_empty());
        for spec in &specs {
            assert!(
                target.supports_width(spec.nu),
                "{target}: spec ν={} outside the target's widths",
                spec.nu
            );
        }
        assert_eq!(specs.iter().map(|s| s.nu).max().unwrap(), max_nu, "{target}");
        let g = slingen::generate(&apps::potrf(6), &opts).unwrap();
        assert!(g.spec.nu <= max_nu, "{target}: winner ν={} too wide", g.spec.nu);
    }
}

/// The tuning cache keys on the target: the same program generated for
/// two targets through one shared cache yields two distinct entries.
#[test]
fn tune_cache_distinguishes_targets() {
    let p = apps::potrf(6);
    let avx2 = Options::for_target(Target::Avx2);
    let fma = Options { cache: avx2.cache.clone(), ..Options::for_target(Target::Avx2Fma) };
    let g1 = slingen::generate(&p, &avx2).unwrap();
    assert!(!g1.tuning.cache_hit);
    let g2 = slingen::generate(&p, &fma).unwrap();
    assert!(!g2.tuning.cache_hit, "a different target must miss the cache");
    assert_eq!(avx2.cache.len(), 2);
    // and each replays its own artifact
    assert!(slingen::generate(&p, &avx2).unwrap().tuning.cache_hit);
    assert!(slingen::generate(&p, &fma).unwrap().tuning.cache_hit);
}

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

/// FNV-1a over the bytes of `s`: a fixed, dependency-free digest for the
/// Report wire lines in the golden table.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Golden output digests: for every paper app × target × ν × policy, the
/// emitted C (`digest_c_for`: hash and byte length) and the exact
/// IEEE-754 wire form of the measured `Report` must match the committed
/// table. Any change to Stage 1-3, the unparser, or the machine model
/// that alters a single byte or bit fails here; on a mismatch the fresh
/// table is printed so an intentional change can be reviewed and
/// committed.
///
/// Every lane movement of the grid's kernels is a call to a lane helper:
/// no kernel body holds a stack array, only the helpers ahead of it do.
#[test]
fn golden_digests_are_stable_everywhere() {
    use std::fmt::Write;
    let mut fresh = String::new();
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            let opts = Options::for_target(target);
            for &nu in target.widths() {
                for policy in Policy::ALL {
                    let spec = VariantSpec { policy, nu };
                    let g = generate_with_spec(&program, spec, &opts)
                        .unwrap_or_else(|e| panic!("{name}/{target}/nu{nu}/{policy}: {e}"));
                    let (c_hash, c_len) = slingen_cir::unparse::digest_c_for(&g.function, target);
                    assert_eq!(c_len, g.c_code.len(), "{name}/{target}/nu{nu}/{policy}");
                    let body = &g.c_code[g.c_code.find("\nvoid ").expect("kernel")..];
                    assert!(
                        !["_t[", "_ta[", "_tb[", "double t["].iter().any(|a| body.contains(a)),
                        "{name}/{target}/nu{nu}/{policy}: stack array in the kernel body"
                    );
                    let wire = fnv1a(&g.report.to_wire());
                    let _ = writeln!(
                        fresh,
                        "{name} {target} {nu} {policy} {c_hash:016x} {c_len} {wire:016x}"
                    );
                }
            }
        }
    }
    let path = format!("{}/../../tests/snapshots/golden_digests.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        fresh == want,
        "emitted C or Report drifted from tests/snapshots/golden_digests.txt; fresh table \
         (app target nu policy c_hash c_len report_hash):\n{fresh}"
    );
}

/// One point of the Stage-3 grid: policy, ν and the Stage-2 loop
/// threshold. The grid also lowers at thresholds the tuner does not
/// search, so Stage 3 meets the loops they leave behind.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    policy: Policy,
    nu: usize,
    loop_threshold: usize,
}

impl std::fmt::Display for GridPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/nu{}/t{}", self.policy, self.nu, self.loop_threshold)
    }
}

/// Lower one grid point and run the target's Stage-3 pipeline over it,
/// returning the optimized body and the fixpoint telemetry.
fn stage3(program: &Program, target: Target, point: GridPoint) -> (Function, PipelineStats) {
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, point.policy, point.nu, &mut db).unwrap();
    let opts = LowerOptions::new(point.nu, point.loop_threshold);
    let mut f = lower_program(program, &basic, program.name(), &opts).unwrap();
    let passes = Options::for_target(target).passes.for_target(target);
    let stats = optimize_with_stats(&mut f, &passes, &mut |_, _| {});
    (f, stats)
}

/// Every point of the golden grid for one target: ν × policy × loop
/// threshold 16/64/256.
fn grid_specs(target: Target) -> Vec<GridPoint> {
    let mut specs = Vec::new();
    for &nu in target.widths() {
        for policy in Policy::ALL {
            for loop_threshold in [16, 64, 256] {
                specs.push(GridPoint { policy, nu, loop_threshold });
            }
        }
    }
    specs
}

/// The tuner dedupes bodies by their C-IR fingerprint instead of by the
/// emitted C. Over every body of the golden grid, grouping the bodies of
/// one (app, target) search by `Function::fingerprint` must give exactly
/// the groups that grouping by `digest_c_for` gives: equal fingerprints
/// mean equal C, and distinct fingerprints mean distinct C.
#[test]
fn fingerprint_groups_bodies_exactly_as_the_c_digest_does() {
    let mut merged = 0;
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            let mut c_of: HashMap<(u64, usize), (u64, usize)> = HashMap::new();
            let mut fp_of: HashMap<(u64, usize), (u64, usize)> = HashMap::new();
            let specs = grid_specs(target);
            for &spec in &specs {
                let (f, _) = stage3(&program, target, spec);
                let fp = f.fingerprint();
                let c = slingen_cir::unparse::digest_c_for(&f, target);
                let label = format!("{name}/{target}/{spec}");
                assert_eq!(*c_of.entry(fp).or_insert(c), c, "{label}: one fingerprint, two C");
                assert_eq!(*fp_of.entry(c).or_insert(fp), fp, "{label}: one C, two fingerprints");
            }
            merged += specs.len() - c_of.len();
        }
    }
    assert!(merged > 0, "the grid must contain colliding bodies for the check to bite");
}

/// Counts the dynamic vector loads that cannot take their data from the
/// store buffer: loads whose lanes were last written by two or more
/// different (dynamic) stores, or by a masked store, i.e. a vector store
/// with an inactive lane. Such a load waits until the stores commit.
#[derive(Default)]
struct StalledLoads {
    stores: u64,
    /// Per memory cell: the serial of its last store, and whether that
    /// store was masked.
    last_store: HashMap<(usize, i64), (u64, bool)>,
    count: usize,
}

impl Monitor for StalledLoads {
    fn event(&mut self, ev: &Event<'_>) {
        match ev.instr {
            Instr::VLoad { .. } => {
                let writers: Vec<(u64, bool)> =
                    ev.reads.iter().filter_map(|c| self.last_store.get(c).copied()).collect();
                if writers.iter().any(|&(_, masked)| masked)
                    || writers.windows(2).any(|p| p[0].0 != p[1].0)
                {
                    self.count += 1;
                }
            }
            Instr::SStore { .. } | Instr::VStore { .. } => {
                self.stores += 1;
                let masked =
                    matches!(ev.instr, Instr::VStore { lanes, .. } if lanes.contains(&None));
                for cell in &ev.writes {
                    self.last_store.insert(*cell, (self.stores, masked));
                }
            }
            _ => {}
        }
    }
}

/// [`StalledLoads`] over one run of `f` on zero inputs (the count depends
/// on addresses only, never on values).
fn stalled_loads(f: &Function) -> usize {
    let mut bufs = BufferSet::for_function(f);
    let mut mon = StalledLoads::default();
    execute(f, &mut bufs, &mut mon).expect("VM runs the body");
    mon.count
}

/// Deterministic Stage-3 work counters. Every body of the golden grid
/// (app × target × ν × policy × loop threshold 16/64/256), plus trlya24
/// lazy/nu1 on AVX2, must reach the cleanup fixpoint within 3 rounds
/// (one productive round, at most one more, and the confirming round).
/// The per-app totals of rounds, CSE-keyed instructions and
/// [`StalledLoads`] must match `tests/snapshots/stage3_counters.txt`;
/// like the golden digests, a
/// mismatch prints the fresh table so an intentional change can be
/// reviewed and committed.
#[test]
fn stage3_converges_within_three_rounds_and_its_work_is_pinned() {
    use std::fmt::Write;
    const MAX_ROUNDS: usize = 3;
    let mut fresh = String::new();
    let (mut total_bodies, mut total_rounds, mut total_keyed, mut total_stalled) = (0, 0, 0, 0);
    let mut row = |label: &str, program: &Program, runs: &[(Target, GridPoint)]| {
        let (mut rounds, mut keyed, mut stalled) = (0, 0, 0);
        for &(target, spec) in runs {
            let (f, stats) = stage3(program, target, spec);
            assert!(
                stats.converged && stats.rounds.len() <= MAX_ROUNDS,
                "{label}/{target}/{spec}: {} rounds, converged = {}",
                stats.rounds.len(),
                stats.converged
            );
            rounds += stats.rounds.len();
            keyed += stats.rounds.iter().map(|r| r.cse_rekeyed).sum::<usize>();
            stalled += stalled_loads(&f);
        }
        let _ = writeln!(fresh, "{label} {} {rounds} {keyed} {stalled}", runs.len());
        total_bodies += runs.len();
        total_rounds += rounds;
        total_keyed += keyed;
        total_stalled += stalled;
    };
    for (name, program) in paper_apps() {
        let runs: Vec<(Target, GridPoint)> = Target::ALL
            .into_iter()
            .flat_map(|target| grid_specs(target).into_iter().map(move |spec| (target, spec)))
            .collect();
        row(name, &program, &runs);
    }
    let point = GridPoint { policy: Policy::Lazy, nu: 1, loop_threshold: 64 };
    row("trlya24", &apps::trlya(24), &[(Target::Avx2, point)]);
    let _ = writeln!(fresh, "total {total_bodies} {total_rounds} {total_keyed} {total_stalled}");
    let path = format!("{}/../../tests/snapshots/stage3_counters.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        fresh == want,
        "Stage-3 work drifted from tests/snapshots/stage3_counters.txt; fresh table \
         (label bodies rounds cse_rekeyed stalled_loads):\n{fresh}"
    );
}
