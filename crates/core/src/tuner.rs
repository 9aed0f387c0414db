//! The variant-space autotuner (paper §3.3 "Autotuning", Fig. 14).
//!
//! The paper's autotuner searches over algorithmic variants *and*
//! code-level parameters. This module makes that search a first-class
//! subsystem instead of a hard-coded two-policy fan-out:
//!
//! * [`VariantSpec`] — one point of the space: loop-invariant policy
//!   (Stage 1) and vector width ν (Stage 2). Stage 2 always lowers at the
//!   default loop threshold: Stage 3's unroll budget re-expands nearly
//!   every loop a threshold creates, so a threshold axis rarely changes
//!   the code;
//! * [`SearchSpace`] — a builder over the two axes, explored by one
//!   deterministic coordinate descent ([`run_greedy`]) that prunes
//!   dominated variants with the machine model's cycle-budget early-cutoff
//!   ([`slingen_perf::measure_budgeted`]);
//! * [`TuneCache`] — a shareable cache keyed by (program, machine,
//!   space, options) so repeated generation of the same kernel is a
//!   lookup, not a search — the first step toward serving generation as
//!   a high-traffic service.
//!
//! Search is parallel but deterministic: every variant of a batch runs
//! Stages 1–3 plus measurement on its own OS thread, synthesizing through
//! its own fresh [`AlgorithmDb`] (a database shared across variants hits
//! only a few percent of derivations, and sharing it would order Stage 1
//! serially before the batch), and the winner is selected by strict
//! minimum modeled cycles with ties broken in canonical space-enumeration
//! order — so the winning C code is bit-identical across runs and thread
//! interleavings.
//!
//! The search is target-aware: the ν axis is derived from
//! [`Target::widths`] (a Scalar target never explores vector variants),
//! the Stage-3 pipeline contracts multiply–add chains on FMA targets,
//! and the target participates in the [`TuneCache`] key.
//!
//! Colliding variants (two policies that lower to one body) are caught
//! after lowering by the body's structural C-IR fingerprint
//! ([`Function::fingerprint`], [`TuneStats::deduped`]) and measured once;
//! no body is unparsed to C during the search, only the winner, once, at
//! emission. Each variant runs synthesis, lowering, optimization,
//! fingerprint, and measurement end-to-end in its own thread — no
//! cross-stage barrier.

pub use crate::cache::TuneCache;
use crate::cache::{CachedWin, Claim, PersistedWin};
use crate::pipeline::{Generated, Options};
use crate::{workload, Error};
use slingen_cir::passes::optimize_with_stats;
use slingen_cir::{Function, Target};
use slingen_ir::Program;
use slingen_lgen::{lower_program, LowerOptions};
use slingen_perf::{pressure_lower_bound, Report};
use slingen_synth::{synthesize_program, AlgorithmDb, BasicProgram, Policy};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One point of the autotuning search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantSpec {
    /// Loop-invariant family of the Stage-1 derivation.
    pub policy: Policy,
    /// Vector width ν (4 = AVX double, 2 = SSE2, 1 = scalar).
    pub nu: usize,
}

impl VariantSpec {
    /// The Stage-2 lowering options for this variant: its ν at the
    /// default loop threshold.
    pub fn lower_options(&self) -> LowerOptions {
        LowerOptions { nu: self.nu, ..LowerOptions::default() }
    }
}

impl fmt::Display for VariantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/nu{}", self.policy, self.nu)
    }
}

/// The autotuner's search space: the policy and ν axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    policies: Vec<Policy>,
    nus: Vec<usize>,
}

impl Default for SearchSpace {
    /// `Policy::ALL` × ν ∈ {1, 2, 4}.
    fn default() -> Self {
        SearchSpace { policies: Policy::ALL.to_vec(), nus: vec![1, 2, 4] }
    }
}

impl SearchSpace {
    /// The default space (see [`SearchSpace::default`]).
    pub fn new() -> Self {
        SearchSpace::default()
    }

    /// Restrict the policy axis.
    pub fn with_policies(mut self, policies: impl Into<Vec<Policy>>) -> Self {
        self.policies = policies.into();
        self
    }

    /// Restrict the ν axis.
    pub fn with_nus(mut self, nus: impl Into<Vec<usize>>) -> Self {
        self.nus = nus.into();
        self
    }

    /// The ν axis intersected with the target's supported widths and
    /// clamped to the caller's machine width: code wider than the target
    /// vector unit is never a candidate. Falls back to the widest
    /// supported width if the clamp empties the axis.
    fn nus_for(&self, target: Target, max_nu: usize) -> Vec<usize> {
        let nus: Vec<usize> =
            self.nus.iter().copied().filter(|&n| n <= max_nu && target.supports_width(n)).collect();
        if nus.is_empty() {
            let w = target.widths().iter().copied().filter(|&w| w <= max_nu).max().unwrap_or(1);
            vec![w]
        } else {
            nus
        }
    }

    /// All points, in canonical enumeration order (policy-major, then ν).
    /// The ν axis is derived from [`Target::widths`] bounded by `max_nu`.
    /// Tie-breaks during selection follow this order.
    pub fn enumerate(&self, target: Target, max_nu: usize) -> Vec<VariantSpec> {
        let nus = self.nus_for(target, max_nu);
        self.policies
            .iter()
            .flat_map(|&policy| nus.iter().map(move |&nu| VariantSpec { policy, nu }))
            .collect()
    }

    /// Number of points for a given target and machine width.
    pub fn len(&self, target: Target, max_nu: usize) -> usize {
        self.policies.len() * self.nus_for(target, max_nu).len()
    }

    /// Whether the space has no points (the ν axis never empties: see
    /// [`SearchSpace::nus_for`]).
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// A stable fingerprint for cache keys. The `Greedy` tag names the
    /// one search there is; it stays so that persisted keys still hit.
    fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("|space:Greedy;");
        for p in &self.policies {
            let _ = write!(out, "{p},");
        }
        out.push(';');
        for n in &self.nus {
            let _ = write!(out, "{n},");
        }
    }
}

/// How the winner of one `generate()` call was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuneStats {
    /// Variants evaluated against a measurement (including cut-off and
    /// deduplicated variants).
    pub explored: usize,
    /// Variants abandoned by the cycle-budget early-cutoff.
    pub pruned: usize,
    /// Variants that were lowered and whose Stage-3 output turned out
    /// identical (equal C-IR fingerprint) to an already-measured
    /// variant's; their measurement was reused, not repeated.
    pub deduped: usize,
    /// Always 0: the search no longer has a loop-threshold axis whose
    /// colliding members could be predicted. Kept because the external
    /// benchmark under `perfbench/` reads it.
    pub predicted: usize,
    /// Whether the result came from the [`TuneCache`].
    pub cache_hit: bool,
    /// Whether this request piggybacked on an *in-flight* search for the
    /// same key: it blocked until the owning request's search finished
    /// and shares its result (always together with `cache_hit`).
    pub coalesced: bool,
    /// Whether this request re-materialized its entry from a persisted
    /// cache file ([`TuneCache::load`]) instead of searching. Only that
    /// one request reports it; later hits on the entry are plain hits.
    pub persisted: bool,
    /// Always 0: Stage 3 no longer replays clean blocks. Kept because
    /// the external benchmark under `perfbench/` reads it.
    pub blocks_reused: usize,
    /// Measurements abandoned before the VM even ran because the static
    /// pressure bound ([`slingen_perf::pressure_lower_bound`]) already
    /// exceeded the incumbent's cycle budget.
    pub lb_pruned: usize,
    /// Distinct kernels compiled and timed on real hardware by the
    /// two-stage measured flow (0 in model mode and when hardware
    /// measurement fell back to the model).
    pub hw_ranked: usize,
}

/// One stage-two hardware timing: a top-K model survivor, its modeled
/// cycles, and what the host actually measured. The list on
/// [`Generated::hw_trials`] is in model-ranking order, so the first
/// entry is always the model-ranked winner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwTrial {
    /// The variant that produced this kernel (its lowest-ord spec when
    /// several specs collapse onto one body).
    pub spec: VariantSpec,
    /// The scheduler's cycle estimate.
    pub model_cycles: f64,
    /// The harness's median-of-min observation.
    pub measured: slingen_perf::MeasuredTime,
}

/// Where one variant's cold time went, in milliseconds, each measured on
/// the variant's own thread: Stage 1 synthesis, Stage 2 lowering, Stage 3
/// optimization, and the modeled-cycle measurement (`measure_ms == 0.0`
/// when the lowered body fingerprinted onto an already-measured sibling).
/// Every variant the search evaluates is its own representative and has
/// one entry. Variants of one batch run in parallel, so the entries sum
/// to CPU time, not wall time. The body fingerprint and the winner's
/// unparse to C after the search are not in it. Cache hits carry an
/// empty list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepCost {
    /// The representative's variant.
    pub spec: VariantSpec,
    /// Stage 1: synthesizing the basic program through a fresh
    /// [`AlgorithmDb`].
    pub synth_ms: f64,
    /// Stage 2: lowering the basic program to C-IR.
    pub lower_ms: f64,
    /// Stage 3: the optimization fixpoint.
    pub opt_ms: f64,
    /// Modeled-cycle measurement (VM run + scheduler).
    pub measure_ms: f64,
    /// Cleanup rounds Stage 3 ran.
    pub rounds: usize,
    /// Whether Stage 3 stopped on a no-change round rather than on the
    /// iteration cap.
    pub converged: bool,
}

/// The capacity a key is built in: enough for every paper app at every
/// size and target, hardware measurement included (the largest, kf64,
/// is about 1.6 KB), so a key never reallocates mid-build.
const KEY_CAPACITY: usize = 2048;

/// Everything that determines the tuned output, flattened into a string.
/// The raw `nu` option is keyed only through the effective ν axis
/// ([`SearchSpace::nus_for`]), so requests with the same axes share one
/// entry. The machine and the pass configuration go in through their own
/// key writers ([`Machine::write_key`], [`PassConfig::write_key`]): every
/// `f64` as its bit pattern, flags and counts as integers, so neither is
/// run through `Debug` or a float formatter. The key is built once per
/// `generate()` call, and once per distinct request an
/// [`Engine`](crate::serve::Engine) serves: the engine keeps it, so its
/// hits build no key.
///
/// [`Machine::write_key`]: slingen_perf::Machine::write_key
/// [`PassConfig::write_key`]: slingen_cir::passes::PassConfig::write_key
pub(crate) fn cache_key(program: &Program, options: &Options) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(KEY_CAPACITY);
    let _ = write!(key, "{program}");
    // `ow(..)` storage sharing is not part of the surface rendering but
    // changes the generated code.
    for (i, o) in program.operands().iter().enumerate() {
        if let Some(t) = o.overwrites {
            let _ = write!(key, "|ow{i}:{}", t.0);
        }
    }
    let nus = options.search.nus_for(options.target, options.nu);
    let _ = write!(key, "|target:{}|machine:", options.target);
    options.machine.write_key(&mut key);
    key.push_str("|passes:");
    options.passes.write_key(&mut key);
    let _ = write!(key, "|nus:{nus:?}|seed:{}", options.seed);
    options.search.fingerprint(&mut key);
    // Empty in model mode.
    key.push_str(&options.measure.cache_key_suffix());
    key
}

/// Measure a generated function on a valid random workload, under an
/// optional cycle budget (`None` if the budget was exceeded).
fn measure(
    program: &Program,
    function: &Function,
    options: &Options,
    budget: Option<f64>,
) -> Result<Option<Report>, Error> {
    let mut bufs = workload::buffers(program, function, options.seed);
    Ok(slingen_perf::measure_budgeted(function, &mut bufs, &options.machine, budget)?)
}

/// One variant after Stages 2–3: the optimized function, how long
/// lowering and the optimization pipeline took, in milliseconds, and the
/// pipeline's fixpoint outcome (the [`RepCost`] breakdown).
struct Lowered {
    function: Function,
    lower_ms: f64,
    opt_ms: f64,
    rounds: usize,
    converged: bool,
}

/// Stages 2–3 for one already-synthesized variant: lowering plus the
/// optimization pipeline specialized for the options' target (FMA
/// contraction on FMA targets).
fn lower_variant(
    program: &Program,
    spec: VariantSpec,
    basic: &BasicProgram,
    options: &Options,
) -> Result<Lowered, Error> {
    let t0 = std::time::Instant::now();
    let mut function = lower_program(program, basic, program.name(), &spec.lower_options())?;
    let lower_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let stats = optimize_with_stats(&mut function, &options.passes_for_target(), &mut |_, _| {});
    let opt_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok(Lowered {
        function,
        lower_ms,
        opt_ms,
        rounds: stats.rounds.len(),
        converged: stats.converged,
    })
}

/// The dedupe key of one lowered body: its structural C-IR fingerprint
/// ([`Function::fingerprint`]), a 64-bit hash plus the static instruction
/// count as a collision guard. A search runs on one target, for which the
/// IR determines the emitted C, so equal keys mean byte-identical C; no
/// body is unparsed until the winner is emitted. Debug builds assert `==`
/// on every pair of bodies that share a key while both are kept (a
/// cut-off or failed body keeps only its key).
type BodyKey = (u64, usize);

/// The remembered measurement of one distinct lowered body.
#[derive(Debug, Clone)]
enum MeasureOutcome {
    /// Full report and the body itself, which only a measured body can
    /// need again: the winner is emitted from it, and hardware ranking
    /// compiles it.
    Measured(Box<Report>, Function),
    /// Abandoned by the cycle-budget cutoff: provably dominated. Budgets
    /// only shrink as the incumbent improves, so a cut-off body stays
    /// dominated for the rest of the search.
    CutOff,
    /// Measurement failed; the error is recorded separately.
    Failed,
}

/// One distinct lowered body: variants whose Stage-3 output is identical
/// share it, so it is measured once. A measured body keeps its function
/// once — the winner is emitted without re-lowering, and the stage-two
/// hardware ranking compiles each distinct kernel once — while a cut-off
/// or failed one is dropped as soon as it is recorded, leaving only its
/// fingerprint (the [`BodyKey`] it is stored under).
struct Body {
    outcome: MeasureOutcome,
    /// The lowest canonical enumeration index (and its spec) among the
    /// variants that landed on this body: the label hardware trials carry.
    first: (usize, VariantSpec),
}

impl Body {
    /// The modeled report, when the body was fully measured.
    fn report(&self) -> Option<&Report> {
        match &self.outcome {
            MeasureOutcome::Measured(report, _) => Some(report),
            MeasureOutcome::CutOff | MeasureOutcome::Failed => None,
        }
    }

    /// The body's function, kept only when it was fully measured.
    fn function(&self) -> Option<&Function> {
        match &self.outcome {
            MeasureOutcome::Measured(_, function) => Some(function),
            MeasureOutcome::CutOff | MeasureOutcome::Failed => None,
        }
    }
}

/// What one variant thread produces: its Stage-1 time and database
/// (hits, misses), the lowered variant, the body fingerprint, and the
/// measurement it ran inline (`None` when the body was already measured).
struct RepOut {
    synth_ms: f64,
    db_stats: (usize, usize),
    lowered: Lowered,
    key: BodyKey,
    /// The measurement this thread ran (`None`: body already measured).
    measured: Option<Result<Option<Report>, Error>>,
    /// Time spent in that measurement (0 when it was skipped).
    measure_ms: f64,
    /// Whether the measurement was cut off by the static pressure bound
    /// without running the VM ([`TuneStats::lb_pruned`]).
    lb_pruned: bool,
}

/// One variant end-to-end, on its own thread: synthesize through a fresh
/// [`AlgorithmDb`] → lower → optimize → fingerprint → measure.
/// Measurement is skipped when `bodies` already holds the body.
fn run_variant(
    program: &Program,
    spec: VariantSpec,
    options: &Options,
    bodies: &HashMap<BodyKey, Body>,
    budget: Option<f64>,
) -> Result<RepOut, Error> {
    let t = std::time::Instant::now();
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, spec.policy, spec.nu, &mut db)?;
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;
    let db_stats = (db.hits(), db.misses());
    let lowered = lower_variant(program, spec, &basic, options)?;
    let key = lowered.function.fingerprint();
    let mut out = RepOut {
        synth_ms,
        db_stats,
        lowered,
        key,
        measured: None,
        measure_ms: 0.0,
        lb_pruned: false,
    };
    if bodies.contains_key(&key) {
        return Ok(out);
    }
    let f = &out.lowered.function;
    let t = std::time::Instant::now();
    // Incumbent fast path: when a cycle budget is set and the static
    // pressure bound already exceeds it, the budgeted VM run is
    // guaranteed to be abandoned — skip it. Debug builds run the VM
    // anyway and prove the prediction.
    let lb_pruned = budget.is_some_and(|b| pressure_lower_bound(f, &options.machine) > b);
    let m = if lb_pruned {
        debug_assert!(
            matches!(measure(program, f, options, budget), Ok(None)),
            "pressure_lower_bound exceeded the budget but the budgeted VM run was not cut \
             off for {spec}"
        );
        Ok(None)
    } else {
        measure(program, f, options, budget)
    };
    out.measure_ms = t.elapsed().as_secs_f64() * 1e3;
    out.measured = Some(m);
    out.lb_pruned = lb_pruned;
    Ok(out)
}

/// The incumbent: its spec, its canonical enumeration index (ties break
/// on it), and the key of its body in [`Search::bodies`], which holds its
/// function and report.
struct Best {
    spec: VariantSpec,
    ord: usize,
    key: BodyKey,
}

/// A finished search: the winner, unparsed once and ready for the cache,
/// plus the search's own ledgers.
pub(crate) struct Found {
    pub(crate) win: CachedWin,
    /// Per-variant costs, in evaluation order.
    pub(crate) rep_costs: Vec<RepCost>,
    /// Stage-two hardware timings (empty unless hardware ranking ran).
    pub(crate) hw_trials: Vec<HwTrial>,
}

impl Found {
    /// Move the win into the owned public result; nothing is copied.
    pub(crate) fn into_generated(self) -> Generated {
        let Found { win, rep_costs, hw_trials } = self;
        Generated {
            function: win.function,
            c_code: win.c_code,
            spec: win.spec,
            report: win.report,
            db_stats: win.db_stats,
            tuning: win.stats,
            rep_costs,
            hw_trials,
        }
    }
}

/// The search state: the visited set, one record per distinct lowered
/// body, the incumbent, and exploration statistics.
pub(crate) struct Search<'p> {
    program: &'p Program,
    options: &'p Options,
    /// Stage-1 database (hits, misses), summed over the variants in
    /// evaluation order, each synthesized through its own database.
    db_stats: (usize, usize),
    /// Canonical enumeration index per spec (ties break on it).
    order: HashMap<VariantSpec, usize>,
    /// Specs already attempted (measured, cut off, or failed); a spec is
    /// never evaluated twice within one search.
    visited: HashSet<VariantSpec>,
    /// Every distinct lowered body by fingerprint ([`BodyKey`]).
    bodies: HashMap<BodyKey, Body>,
    best: Option<Best>,
    stats: TuneStats,
    /// Per-variant cost ledger, in evaluation order.
    rep_costs: Vec<RepCost>,
    /// Stage-two hardware timings (empty unless hardware ranking ran).
    hw_trials: Vec<HwTrial>,
    last_err: Option<Error>,
}

impl<'p> Search<'p> {
    pub(crate) fn new(program: &'p Program, options: &'p Options) -> Self {
        let order = options
            .search
            .enumerate(options.target, options.nu)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        Search {
            program,
            options,
            db_stats: (0, 0),
            order,
            visited: HashSet::new(),
            bodies: HashMap::new(),
            best: None,
            stats: TuneStats::default(),
            rep_costs: Vec::new(),
            hw_trials: Vec::new(),
            last_err: None,
        }
    }

    /// Evaluate a batch of specs: one thread per unvisited variant
    /// running [`run_variant`], Stage 1 included, so the batch's
    /// syntheses run in parallel with each other and with their siblings'
    /// Stages 2–3. Updates the incumbent deterministically (strict min
    /// cycles, ties broken by canonical enumeration order): results, the
    /// database statistics included, are accounted in batch order,
    /// whatever order the threads finish in.
    pub(crate) fn evaluate(&mut self, specs: &[VariantSpec], budget: Option<f64>) {
        let todo: Vec<VariantSpec> =
            specs.iter().copied().filter(|s| self.visited.insert(*s)).collect();
        let (program, options, bodies) = (self.program, self.options, &self.bodies);
        let results: Vec<(VariantSpec, Result<RepOut, Error>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .into_iter()
                .map(|spec| {
                    scope.spawn(move || (spec, run_variant(program, spec, options, bodies, budget)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("autotune variant thread panicked"))
                .collect()
        });
        // The first variant (earlier batches first, then batch order) to
        // surface a body keeps it and its measurement; every later variant
        // landing on that body is deduped.
        for (spec, out) in results {
            let RepOut { synth_ms, db_stats, lowered, key, measured, measure_ms, lb_pruned } =
                match out {
                    Ok(out) => out,
                    Err(e) => {
                        self.last_err = Some(e);
                        continue;
                    }
                };
            let Lowered { function, lower_ms, opt_ms, rounds, converged } = lowered;
            self.rep_costs.push(RepCost {
                spec,
                synth_ms,
                lower_ms,
                opt_ms,
                measure_ms,
                rounds,
                converged,
            });
            self.db_stats.0 += db_stats.0;
            self.db_stats.1 += db_stats.1;
            self.stats.lb_pruned += usize::from(lb_pruned);
            let ord = self.order.get(&spec).copied().unwrap_or(usize::MAX);
            let shared = match self.bodies.entry(key) {
                Entry::Occupied(mut kept) => {
                    let body = kept.get_mut();
                    debug_assert!(
                        body.function().is_none_or(|kept| *kept == function),
                        "two different bodies share the fingerprint {key:?} ({spec})"
                    );
                    if ord < body.first.0 {
                        body.first = (ord, spec);
                    }
                    true
                }
                Entry::Vacant(slot) => {
                    let outcome = match measured.expect("a body new to the search is measured") {
                        Ok(Some(report)) => MeasureOutcome::Measured(Box::new(report), function),
                        Ok(None) => MeasureOutcome::CutOff,
                        Err(e) => {
                            self.last_err = Some(e);
                            MeasureOutcome::Failed
                        }
                    };
                    slot.insert(Body { outcome, first: (ord, spec) });
                    false
                }
            };
            let cycles = match &self.bodies[&key].outcome {
                MeasureOutcome::Measured(report, _) => report.cycles,
                MeasureOutcome::CutOff => {
                    // cut off: provably slower than the incumbent
                    self.stats.explored += 1;
                    self.stats.pruned += 1;
                    self.stats.deduped += usize::from(shared);
                    continue;
                }
                MeasureOutcome::Failed => continue,
            };
            self.stats.explored += 1;
            self.stats.deduped += usize::from(shared);
            if self.incumbent().is_none_or(|incumbent| (cycles, ord) < incumbent) {
                self.best = Some(Best { spec, ord, key });
            }
        }
    }

    /// The incumbent's modeled cycles and canonical enumeration index:
    /// a variant replaces it when its pair compares lower.
    fn incumbent(&self) -> Option<(f64, usize)> {
        let best = self.best.as_ref()?;
        Some((self.bodies[&best.key].report()?.cycles, best.ord))
    }

    /// Stage two of the measured flow: compile and time the top-K
    /// distinct model survivors on real hardware, then re-rank. Any
    /// failure — no compiler, a compile error, a bad harness run — keeps
    /// the model ranking untouched and logs the reason: the measured
    /// path never degrades below the model-only flow. A full success
    /// attaches the winner's [`slingen_perf::MeasuredTime`] to its
    /// report and records every trial for drift tracking.
    fn rerank_hardware(&mut self) {
        // Distinct measured bodies by model ranking (cycles, then ord).
        let mut candidates: Vec<(f64, usize, BodyKey, VariantSpec)> = self
            .bodies
            .iter()
            .filter_map(|(key, body)| {
                let (ord, spec) = body.first;
                Some((body.report()?.cycles, ord, *key, spec))
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        candidates.truncate(crate::measure::TOP_K);
        if candidates.is_empty() {
            return;
        }
        let hw =
            match crate::measure::HardwareMeasurer::new(self.options.target, &self.options.measure)
            {
                Ok(hw) => hw,
                Err(e) => {
                    eprintln!(
                        "slingen: hardware measurement unavailable for `{}` ({e}); \
                     keeping model ranking",
                        self.program.name()
                    );
                    return;
                }
            };
        let mut trials: Vec<HwTrial> = Vec::with_capacity(candidates.len());
        for &(model_cycles, _, key, spec) in &candidates {
            let function = self.bodies[&key].function().expect("a ranked body was measured");
            match hw.measure(self.program, function, self.options.seed) {
                Ok(m) if m.cycles.is_finite() && m.cycles >= 0.0 => {
                    trials.push(HwTrial { spec, model_cycles, measured: m });
                }
                Ok(m) => {
                    eprintln!(
                        "slingen: hardware timing for `{}` {spec} was not finite \
                         ({} cycles); keeping model ranking",
                        self.program.name(),
                        m.cycles
                    );
                    return;
                }
                Err(e) => {
                    eprintln!(
                        "slingen: hardware timing failed for `{}` {spec} ({e}); \
                         keeping model ranking",
                        self.program.name()
                    );
                    return;
                }
            }
        }
        // Re-rank by measured cycles; ties keep the model (candidate)
        // order, so equal timings preserve the deterministic winner.
        let win = (0..trials.len())
            .min_by(|&a, &b| {
                trials[a]
                    .measured
                    .cycles
                    .partial_cmp(&trials[b].measured.cycles)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one trial");
        let (_, ord, key, spec) = candidates[win];
        if let Some(MeasureOutcome::Measured(report, _)) =
            self.bodies.get_mut(&key).map(|body| &mut body.outcome)
        {
            report.measured = Some(trials[win].measured);
        }
        self.stats.hw_ranked = trials.len();
        self.best = Some(Best { spec, ord, key });
        self.hw_trials = trials;
    }

    /// Emit the winner: unparse its body to C for the target, once, and
    /// package it for the cache. Errors with the last variant failure
    /// when no variant was measured.
    pub(crate) fn finish(mut self) -> Result<Found, Error> {
        let Some(best) = self.best else {
            return Err(self.last_err.unwrap_or_else(|| {
                Error::Synth(slingen_synth::SynthError::Unsupported("empty search space".into()))
            }));
        };
        let body = self.bodies.remove(&best.key).expect("the winning body is retained");
        let MeasureOutcome::Measured(report, function) = body.outcome else {
            unreachable!("the incumbent's body was measured")
        };
        let c_code = slingen_cir::unparse::to_c_for(&function, self.options.target);
        let win = CachedWin::new(best.spec, function, c_code, *report, self.db_stats, self.stats);
        Ok(Found { win, rep_costs: self.rep_costs, hw_trials: self.hw_trials })
    }
}

/// The one search: a deterministic coordinate descent. It seeds with a
/// full policy sweep at the widest ν, then improves one coordinate at a
/// time (ν, then policy), pruning candidates that the machine model proves
/// slower than the incumbent (cycle-budget early-cutoff). It can never do
/// worse than the seed sweep — i.e. never worse than the historical
/// two-policy autotuner — but it can stop in a local minimum of the
/// space.
fn run_greedy(search: &mut Search<'_>) {
    let space = &search.options.search;
    let policies = space.policies.clone();
    let nus = space.nus_for(search.options.target, search.options.nu);

    // Round 0: full policy sweep at the widest ν the axis offers (a pure
    // function of the space) — exactly the historical two-policy fan-out,
    // so the greedy winner can never lose to it.
    let seed_nu = nus.iter().copied().max().expect("the ν axis is never empty");
    let seed_batch: Vec<VariantSpec> =
        policies.iter().map(|&policy| VariantSpec { policy, nu: seed_nu }).collect();
    search.evaluate(&seed_batch, None);

    // Coordinate descent: sweep ν, then policy around the incumbent;
    // repeat until a full sweep leaves the incumbent where it was (an
    // incumbent only ever moves to a strictly better, or equally fast and
    // earlier, spec, so it never returns to one it left). Candidates run
    // under the incumbent's cycle budget, so dominated variants are
    // abandoned mid-measurement.
    const MAX_SWEEPS: usize = 3;
    for _ in 0..MAX_SWEEPS {
        let Some(before) = search.best.as_ref().map(|b| b.spec) else {
            return; // every seed failed; nothing to descend from
        };
        for sweep_nu in [true, false] {
            let Some(cur) = search.best.as_ref().map(|b| b.spec) else {
                return;
            };
            let batch: Vec<VariantSpec> = if sweep_nu {
                nus.iter()
                    .filter(|&&nu| nu != cur.nu)
                    .map(|&nu| VariantSpec { nu, ..cur })
                    .collect()
            } else {
                policies
                    .iter()
                    .filter(|&&p| p != cur.policy)
                    .map(|&p| VariantSpec { policy: p, ..cur })
                    .collect()
            };
            let budget = search.incumbent().map(|(cycles, _)| cycles);
            search.evaluate(&batch, budget);
        }
        if search.best.as_ref().map(|b| b.spec) == Some(before) {
            break;
        }
    }
}

/// Re-materialize a persisted cache entry: Stage 1–3 for the one winning
/// spec (no search, no measurement), verified byte-identical against the
/// persisted C. Any mismatch — a stale file from an older code
/// generator, an unparsable report — rejects the entry with a reason and
/// the caller falls back to a full search; persisted data is never
/// trusted blindly.
fn materialize_persisted(
    program: &Program,
    options: &Options,
    p: &PersistedWin,
) -> Result<CachedWin, String> {
    let spec = p.spec;
    if !options.target.supports_width(spec.nu) {
        return Err(format!("persisted spec {spec} is not a width of target {}", options.target));
    }
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, spec.policy, spec.nu, &mut db)
        .map_err(|e| format!("persisted spec no longer synthesizes: {e}"))?;
    let function = lower_variant(program, spec, &basic, options)
        .map_err(|e| format!("persisted spec no longer lowers: {e}"))?
        .function;
    let c_code = slingen_cir::unparse::to_c_for(&function, options.target);
    if c_code != p.c_code {
        return Err("persisted C differs from re-materialized C (stale generator?)".into());
    }
    let report = Report::from_wire(options.machine.clone(), &p.report_wire)
        .ok_or("persisted report line is unparsable")?;
    Ok(CachedWin::new(spec, function, c_code, report, p.db_stats, p.stats))
}

/// What [`tune`] hands back: the cache's shared win plus this request's
/// own view of how it was served. Hits copy nothing; the serve engine
/// renders straight from `win`, and [`Tuned::into_generated`] makes the
/// one owned copy library callers get.
pub(crate) struct Tuned {
    pub(crate) win: Arc<CachedWin>,
    /// `win.stats` with this request's hit, persisted and coalesced flags.
    pub(crate) stats: TuneStats,
    /// Per-representative costs of the search; empty on hits.
    pub(crate) rep_costs: Vec<RepCost>,
    /// Stage-two hardware timings of the search; empty on hits.
    pub(crate) hw_trials: Vec<HwTrial>,
}

impl Tuned {
    /// A request served from a stored win, or (`persisted`) the one that
    /// just re-materialized it from a cache file.
    fn replay(win: Arc<CachedWin>, coalesced: bool, persisted: bool) -> Tuned {
        let stats = TuneStats { cache_hit: true, coalesced, persisted, ..win.stats };
        Tuned { win, stats, rep_costs: Vec::new(), hw_trials: Vec::new() }
    }

    /// Copy the shared win into the owned public result.
    pub(crate) fn into_generated(self) -> Generated {
        let win = &*self.win;
        Generated {
            function: win.function.clone(),
            c_code: win.c_code.clone(),
            spec: win.spec,
            report: win.report.clone(),
            db_stats: win.db_stats,
            tuning: self.stats,
            rep_costs: self.rep_costs,
            hw_trials: self.hw_trials,
        }
    }
}

/// Run the autotuning search for `program` under `options`, consulting
/// and populating the cache: [`tune_keyed`] under the request's
/// [`cache_key`], built once, with the caller's program and options.
pub(crate) fn tune(program: &Program, options: &Options) -> Result<Tuned, Error> {
    if options.search.is_empty() {
        return Err(Error::Synth(slingen_synth::SynthError::Unsupported(
            "empty autotuning search space".into(),
        )));
    }
    tune_keyed(&options.cache, &cache_key(program, options), || (program, options))
}

/// Serve the request whose [`cache_key`] is `key` from `cache`, running
/// the search only when this request owns the key. `inputs` yields the
/// program and options the key was built from (their search space must
/// not be empty); it runs only on [`Claim::Owner`], to re-materialize a
/// persisted entry or to search, so a hit builds neither.
///
/// Concurrency: the first request for a key becomes the *owner* of an
/// in-flight slot and runs the one search; requests arriving while it
/// runs block on the slot and share the owner's result (or its error) —
/// K concurrent requests for one kernel cost exactly one search
/// ([`TuneCache::searches`], [`TuneStats::coalesced`]). Entries loaded
/// from a cache file replay without searching: the winning spec is
/// re-lowered deterministically and checked byte-identical against the
/// persisted C before being served ([`TuneStats::persisted`]).
///
/// Every outcome (miss, hit, persisted, coalesced) returns the win the
/// cache stores, shared: a miss moves its artifacts into the cache, and
/// no path copies a kernel here.
pub(crate) fn tune_keyed<P: Borrow<Program>, O: Borrow<Options>>(
    cache: &TuneCache,
    key: &str,
    inputs: impl FnOnce() -> (P, O),
) -> Result<Tuned, Error> {
    let mut ticket = match cache.claim(key) {
        Claim::Hit { win, coalesced } => return Ok(Tuned::replay(win, coalesced, false)),
        Claim::Failed(e) => return Err(e),
        Claim::Owner(t) => t,
    };
    let (program, options) = inputs();
    let (program, options) = (program.borrow(), options.borrow());
    if let Some(p) = ticket.take_persisted() {
        match materialize_persisted(program, options, &p) {
            Ok(win) => return Ok(Tuned::replay(ticket.fulfill(win), false, true)),
            Err(reason) => {
                eprintln!(
                    "slingen: persisted entry for `{}` unusable ({reason}); re-searching",
                    program.name()
                );
            }
        }
    }
    cache.note_search();
    let mut search = Search::new(program, options);
    run_greedy(&mut search);
    if options.measure.wants_hardware() {
        search.rerank_hardware();
    }
    match search.finish() {
        Ok(Found { win, rep_costs, hw_trials }) => {
            let stats = win.stats;
            Ok(Tuned { win: ticket.fulfill(win), stats, rep_costs, hw_trials })
        }
        Err(e) => {
            ticket.fail(e.clone());
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingen_cir::passes::PassConfig;
    use slingen_perf::Machine;
    use std::collections::HashSet;

    fn key_with(options: &Options) -> String {
        cache_key(&crate::apps::potrf(4), options)
    }

    /// The next representable `f64` above `x`, for a finite `x >= 0`.
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// Every field of the machine and of the pass configuration reaches
    /// the key: a one-ULP change of any `f64`, and any change of the
    /// name, the width, a flag or a count, gives a key of its own.
    #[test]
    fn every_machine_and_pass_field_changes_the_key() {
        let base = Options::for_target(Target::Avx2);
        let floats: [fn(&mut Machine) -> &mut f64; 22] = [
            |m| &mut m.fmul_per_cycle,
            |m| &mut m.fadd_per_cycle,
            |m| &mut m.shuffle_per_cycle,
            |m| &mut m.blend_per_cycle,
            |m| &mut m.mov_per_cycle,
            |m| &mut m.load_units_per_cycle,
            |m| &mut m.store_units_per_cycle,
            |m| &mut m.fmul_latency,
            |m| &mut m.fadd_latency,
            |m| &mut m.fma_latency,
            |m| &mut m.shuffle_latency,
            |m| &mut m.blend_latency,
            |m| &mut m.mov_latency,
            |m| &mut m.load_latency,
            |m| &mut m.store_latency,
            |m| &mut m.div_scalar_cycles,
            |m| &mut m.div_vector_cycles,
            |m| &mut m.cross_lane_latency,
            |m| &mut m.cross_lane_units,
            |m| &mut m.bytes_per_instr,
            |m| &mut m.l1i_bytes,
            |m| &mut m.fetch_bytes_per_cycle,
        ];
        let passes: [fn(&mut PassConfig); 6] = [
            |p| p.unroll_budget += 1,
            |p| p.load_store_analysis = !p.load_store_analysis,
            |p| p.scalar_replacement = !p.scalar_replacement,
            |p| p.cse = !p.cse,
            |p| p.fma_contraction = !p.fma_contraction,
            |p| p.iterations += 1,
        ];

        let mut keys = HashSet::from([key_with(&base)]);
        let mut distinct = |options: Options, what: &str| {
            assert!(keys.insert(key_with(&options)), "changing {what} left the key as it was");
        };
        for (i, field) in floats.iter().enumerate() {
            let mut options = base.clone();
            let x = field(&mut options.machine);
            *x = next_up(*x);
            distinct(options, &format!("machine float #{i}"));
        }
        let mut options = base.clone();
        options.machine.name.push('x');
        distinct(options, "the machine name");
        let mut options = base.clone();
        options.machine.nominal_width += 1;
        distinct(options, "the nominal width");
        for (i, change) in passes.iter().enumerate() {
            let mut options = base.clone();
            change(&mut options.passes);
            distinct(options, &format!("pass field #{i}"));
        }
        assert_eq!(keys.len(), 1 + floats.len() + 2 + passes.len());

        let mut zero = base.clone();
        zero.machine.cross_lane_latency = 0.0;
        let mut negative_zero = base;
        negative_zero.machine.cross_lane_latency = -0.0;
        assert_ne!(key_with(&zero), key_with(&negative_zero), "0.0 and -0.0 key apart");
    }

    /// Every paper app's key, at every size and target and with hardware
    /// measurement on, is built without outgrowing [`KEY_CAPACITY`].
    #[test]
    fn keys_fit_their_initial_capacity() {
        for app in &crate::apps::APPS {
            for n in [1, 8, crate::serve::MAX_N] {
                let program = app.program(n, None);
                for target in Target::ALL {
                    let options = Options {
                        measure: crate::MeasureConfig::hardware(),
                        ..Options::for_target(target)
                    };
                    let key = cache_key(&program, &options);
                    assert_eq!(
                        key.capacity(),
                        KEY_CAPACITY,
                        "{}{n} {target}: {} bytes",
                        app.name,
                        key.len()
                    );
                }
            }
        }
    }
}
