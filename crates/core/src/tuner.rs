//! The variant-space autotuner (paper §3.3 "Autotuning", Fig. 14).
//!
//! The paper's autotuner searches over algorithmic variants *and*
//! code-level parameters. This module makes that search a first-class
//! subsystem instead of a hard-coded two-policy fan-out:
//!
//! * [`VariantSpec`] — one point of the space: loop-invariant policy
//!   (Stage 1), vector width ν (Stage 2), and the loop-vs-straight-line
//!   threshold (Stage 2/3);
//! * [`SearchSpace`] — a builder over the three axes with a pluggable
//!   [`Strategy`]: [`Strategy::Exhaustive`] measures every point,
//!   [`Strategy::Greedy`] runs a deterministic coordinate descent that
//!   prunes dominated variants with the machine model's cycle-budget
//!   early-cutoff ([`slingen_perf::measure_budgeted`]);
//! * [`TuneCache`] — a shareable cache keyed by (program, machine,
//!   space, options) so repeated generation of the same kernel is a
//!   lookup, not a search — the first step toward serving generation as
//!   a high-traffic service.
//!
//! Search is parallel but deterministic: Stage 1 runs serially through
//! one shared [`AlgorithmDb`] (leaf derivations are cached neutrally and
//! shared across the whole policy × ν space), Stages 2–3 plus
//! measurement fan out across OS threads batch by batch, and the winner
//! is selected by strict minimum modeled cycles with ties broken in
//! canonical space-enumeration order — so the winning C code is
//! bit-identical across runs and thread interleavings.
//!
//! The search is target-aware: the ν axis is derived from
//! [`Target::widths`] (a Scalar target never explores vector variants),
//! the Stage-3 pipeline contracts multiply–add chains on FMA targets,
//! and the target participates in the [`TuneCache`] key.
//!
//! Colliding variants are eliminated *before* they cost anything: the
//! first lowering of each (policy, ν) group records a
//! [`LowerProfile`], from which the loop-threshold equivalence class of
//! every other threshold is computed exactly — variants predicted to
//! produce an identical body skip Stage 2/3 entirely and share the
//! representative's measurement ([`TuneStats::predicted`]; debug builds
//! re-lower and assert the bodies really are equal). Unpredicted
//! collisions (across policies) are still caught after lowering by the
//! body's structural C-IR fingerprint ([`Function::fingerprint`],
//! [`TuneStats::deduped`]); no body is unparsed to C during the search,
//! only the winner, once, at emission. Representatives run lowering,
//! optimization, fingerprint, and measurement end-to-end in one thread
//! per variant — no cross-stage barrier.

pub use crate::cache::TuneCache;
use crate::cache::{CachedWin, Claim, PersistedWin};
use crate::pipeline::{Generated, Options};
use crate::{workload, Error};
use slingen_cir::passes::optimize;
use slingen_cir::{Function, Target};
use slingen_ir::Program;
use slingen_lgen::{lower_program_profiled, LowerOptions, LowerProfile};
use slingen_perf::{pressure_lower_bound, Report};
use slingen_synth::{synthesize_program, AlgorithmDb, BasicProgram, Policy};
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
    /// Stage-2 loop threshold (see [`LowerOptions`]).
    pub loop_threshold: usize,
}

impl VariantSpec {
    /// The Stage-2 lowering options for this variant.
    pub fn lower_options(&self) -> LowerOptions {
        LowerOptions::new(self.nu, self.loop_threshold)
    }
}

impl fmt::Display for VariantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/nu{}/t{}", self.policy, self.nu, self.loop_threshold)
    }
}

/// How a [`SearchSpace`] is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Measure every point of the space (one parallel batch).
    Exhaustive,
    /// Deterministic coordinate descent: seed with a full policy sweep at
    /// the default (ν, threshold), then improve one coordinate at a time,
    /// pruning candidates that the machine model proves slower than the
    /// incumbent (cycle-budget early-cutoff). Explores all three
    /// dimensions at a fraction of the exhaustive cost, and can never do
    /// worse than the seed sweep — i.e. never worse than the historical
    /// two-policy autotuner.
    Greedy,
}

/// The autotuner's search space: three axes plus a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    policies: Vec<Policy>,
    nus: Vec<usize>,
    loop_thresholds: Vec<usize>,
    strategy: Strategy,
}

impl Default for SearchSpace {
    /// `Policy::ALL` × ν ∈ {1, 2, 4} × loop-threshold ∈ {16, 64, 256},
    /// explored greedily.
    fn default() -> Self {
        SearchSpace {
            policies: Policy::ALL.to_vec(),
            nus: vec![1, 2, 4],
            loop_thresholds: vec![16, 64, 256],
            strategy: Strategy::Greedy,
        }
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

    /// Restrict the loop-threshold axis.
    pub fn with_loop_thresholds(mut self, thresholds: impl Into<Vec<usize>>) -> Self {
        self.loop_thresholds = thresholds.into();
        self
    }

    /// Set the exploration strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The exploration strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
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

    /// All points, in canonical enumeration order (policy-major, then ν,
    /// then threshold). The ν axis is derived from [`Target::widths`]
    /// bounded by `max_nu`. Tie-breaks during selection follow this
    /// order.
    pub fn enumerate(&self, target: Target, max_nu: usize) -> Vec<VariantSpec> {
        let mut out = Vec::new();
        for &policy in &self.policies {
            for &nu in &self.nus_for(target, max_nu) {
                for &loop_threshold in &self.loop_thresholds {
                    out.push(VariantSpec { policy, nu, loop_threshold });
                }
            }
        }
        out
    }

    /// Number of points for a given target and machine width.
    pub fn len(&self, target: Target, max_nu: usize) -> usize {
        self.policies.len() * self.nus_for(target, max_nu).len() * self.loop_thresholds.len()
    }

    /// Whether the space has no points.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty() || self.loop_thresholds.is_empty()
    }

    /// A stable fingerprint for cache keys.
    fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "|space:{:?};", self.strategy);
        for p in &self.policies {
            let _ = write!(out, "{p},");
        }
        out.push(';');
        for n in &self.nus {
            let _ = write!(out, "{n},");
        }
        out.push(';');
        for t in &self.loop_thresholds {
            let _ = write!(out, "{t},");
        }
    }
}

/// How the winner of one `generate()` call was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuneStats {
    /// Variants evaluated against a measurement (including cut-off,
    /// deduplicated, and predicted variants).
    pub explored: usize,
    /// Variants abandoned by the cycle-budget early-cutoff.
    pub pruned: usize,
    /// Variants that were lowered and whose Stage-3 output turned out
    /// identical (equal C-IR fingerprint) to an already-measured
    /// variant's; their measurement was reused, not repeated. Disjoint
    /// from `predicted`: `explored = measured + cut-off representatives +
    /// deduped + predicted`.
    pub deduped: usize,
    /// Variants *predicted* byte-identical to an already-lowered variant
    /// from its group's [`LowerProfile`] (equal loop-threshold class at
    /// the same policy and ν); they skipped Stage 2/3 entirely and share
    /// the representative's measurement.
    pub predicted: usize,
    /// Whether the result came from the [`TuneCache`].
    pub cache_hit: bool,
    /// Whether this request piggybacked on an *in-flight* search for the
    /// same key: it blocked until the owning request's search finished
    /// and shares its result (always together with `cache_hit`).
    pub coalesced: bool,
    /// Whether the entry originated from a persisted cache file
    /// ([`TuneCache::load`]) rather than a search in this process.
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

/// Where one representative's cold time went, in milliseconds: Stage 2
/// lowering, Stage 3 optimization, and the modeled-cycle measurement
/// (`measure_ms == 0.0` when the lowered body fingerprinted onto an
/// already-measured sibling). Representatives are the only variants that
/// pay these costs — predicted and deduped variants ride along for free.
/// The list is not the whole cold time of a search: Stage 1, which runs
/// serially before the representatives, the body fingerprint, and the
/// winner's unparse to C after the search are not in it. Cache hits carry
/// an empty list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepCost {
    /// The representative's variant.
    pub spec: VariantSpec,
    /// Stage 2: lowering the basic program to C-IR.
    pub lower_ms: f64,
    /// Stage 3: the optimization fixpoint.
    pub opt_ms: f64,
    /// Modeled-cycle measurement (VM run + scheduler).
    pub measure_ms: f64,
}

/// The canonical greedy seed threshold: the tuned search always seeds at
/// the loop-threshold axis member nearest this value.
const SEED_LOOP_THRESHOLD: usize = 64;

/// The member of `values` nearest to `target` (ties toward the smaller
/// value). Used by the greedy seed selection to snap the canonical seed
/// threshold into an arbitrary axis.
fn nearest(values: &[usize], target: usize) -> usize {
    values.iter().copied().min_by_key(|v| (v.abs_diff(target), *v)).expect("non-empty axis")
}

/// Everything that determines the tuned output, flattened into a string.
/// The raw `nu` option is keyed only through the effective ν axis
/// ([`SearchSpace::nus_for`]), so requests with the same axes share one
/// entry.
fn cache_key(program: &Program, options: &Options) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(256);
    let _ = write!(key, "{program}");
    // `ow(..)` storage sharing is not part of the surface rendering but
    // changes the generated code.
    for (i, o) in program.operands().iter().enumerate() {
        if let Some(t) = o.overwrites {
            let _ = write!(key, "|ow{i}:{}", t.0);
        }
    }
    let nus = options.search.nus_for(options.target, options.nu);
    let _ = write!(
        key,
        "|target:{}|machine:{:?}|passes:{:?}|nus:{nus:?}|seed:{}",
        options.target, options.machine, options.passes, options.seed
    );
    options.search.fingerprint(&mut key);
    // Empty in model mode — default keys (and every existing persisted
    // cache) are byte-identical to the pre-measurement format.
    key.push_str(&options.measure.cache_key_suffix());
    key
}

/// A measured variant before the winner's C code is emitted.
pub(crate) struct Variant {
    pub(crate) function: Function,
    pub(crate) spec: VariantSpec,
    pub(crate) report: Report,
}

/// Stage 1 for one (policy, ν), memoized across the space through one
/// shared [`AlgorithmDb`] — variants re-derive only what their schedule
/// actually changes (leaf derivations are policy- and ν-neutral).
struct Synthesizer<'p> {
    program: &'p Program,
    db: AlgorithmDb,
    basics: HashMap<(Policy, usize), Result<Arc<BasicProgram>, Error>>,
}

impl<'p> Synthesizer<'p> {
    fn new(program: &'p Program) -> Self {
        Synthesizer { program, db: AlgorithmDb::new(), basics: HashMap::new() }
    }

    fn basic(&mut self, policy: Policy, nu: usize) -> Result<Arc<BasicProgram>, Error> {
        self.basics
            .entry((policy, nu))
            .or_insert_with(|| {
                synthesize_program(self.program, policy, nu, &mut self.db)
                    .map(Arc::new)
                    .map_err(Error::from)
            })
            .clone()
    }

    fn stats(&self) -> (usize, usize) {
        (self.db.hits(), self.db.misses())
    }
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
    Ok(slingen_perf::measure_budgeted(function, &mut bufs, None, &options.machine, budget)?)
}

/// One variant after Stages 2–3: the optimized function, the
/// [`LowerProfile`] recorded while Stage 2 ran (the basis of the tuner's
/// predictive threshold dedupe), and how long lowering and the
/// optimization pipeline took, in milliseconds (the [`RepCost`]
/// breakdown).
struct Lowered {
    function: Function,
    profile: LowerProfile,
    lower_ms: f64,
    opt_ms: f64,
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
    let (mut function, profile) =
        lower_program_profiled(program, basic, program.name(), &spec.lower_options())?;
    let lower_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    optimize(&mut function, &options.passes_for_target());
    let opt_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok(Lowered { function, profile, lower_ms, opt_ms })
}

/// The dedupe key of one lowered body: its structural C-IR fingerprint
/// ([`Function::fingerprint`]), a 64-bit hash plus the static instruction
/// count as a collision guard. A search runs on one target, for which the
/// IR determines the emitted C, so equal keys mean byte-identical C; no
/// body is unparsed until the winner is emitted. Debug builds assert `==`
/// on every pair of bodies that share a key.
type BodyKey = (u64, usize);

/// The remembered measurement of one distinct lowered body.
#[derive(Debug, Clone)]
enum MeasureOutcome {
    /// Full report (boxed: the other variants are unit-sized).
    Measured(Box<Report>),
    /// Abandoned by the cycle-budget cutoff: provably dominated. Budgets
    /// only shrink as the incumbent improves, so a cut-off body stays
    /// dominated for the rest of the search.
    CutOff,
    /// Measurement failed; the error is recorded separately.
    Failed,
}

/// The resolution of one batch item, filled in as the waves of
/// [`Search::evaluate`] complete.
enum Slot {
    /// Synthesis, lowering, or the debug backstop failed.
    Err(Error),
    /// The variant resolved to a lowered body. `predicted` variants never
    /// ran Stage 2/3 — their key came from the group's [`LowerProfile`]
    /// classification.
    Done { key: BodyKey, predicted: bool },
}

/// What one representative thread produces: the lowered variant, the
/// body fingerprint, and the measurement it ran inline (`None` when the
/// body was already measured).
struct RepOut {
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

type RepResult = Result<RepOut, Error>;

/// The incumbent: the winning spec plus the fingerprint under which its
/// lowered body is retained in [`Search::body_fns`]. The `Function`
/// itself is *not* cloned per improvement — it is materialized once, at
/// [`Search::into_generated`].
struct Best {
    spec: VariantSpec,
    report: Report,
    /// Canonical enumeration index (ties break on it).
    ord: usize,
    key: BodyKey,
}

/// The search state: the visited set, the incumbent, and exploration
/// statistics.
pub(crate) struct Search<'p> {
    program: &'p Program,
    options: &'p Options,
    synth: Synthesizer<'p>,
    /// Canonical enumeration index per spec (ties break on it).
    order: HashMap<VariantSpec, usize>,
    /// Specs already attempted (measured, cut off, or failed); a spec is
    /// never evaluated twice within one search.
    visited: HashSet<VariantSpec>,
    /// Measurements by lowered-body fingerprint ([`BodyKey`]): variants
    /// whose Stage-3 output is identical are measured once and share the
    /// outcome (equal-threshold variants often collapse at small sizes).
    measured: HashMap<BodyKey, MeasureOutcome>,
    /// First recorded Stage-2 profile per (policy, ν) group. The works
    /// values are threshold-independent, so one profile classifies every
    /// loop threshold of its group exactly.
    profiles: HashMap<(Policy, usize), LowerProfile>,
    /// Lowered-body fingerprint per (policy, ν, loop-threshold class): a
    /// variant landing on a recorded class is a *predicted* collision and
    /// skips Stage 2/3 entirely.
    class_bodies: HashMap<(Policy, usize, usize), BodyKey>,
    /// One retained `Function` per distinct lowered body, so the winner
    /// is materialized without re-lowering and without per-improvement
    /// clones.
    body_fns: HashMap<BodyKey, Function>,
    best: Option<Best>,
    /// Lowest-ord spec that landed on each measured body — the stage-two
    /// hardware ranking labels each distinct kernel with this spec.
    body_best: HashMap<BodyKey, (usize, VariantSpec)>,
    stats: TuneStats,
    /// Per-representative cost ledger, in wave completion order.
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
            synth: Synthesizer::new(program),
            order,
            visited: HashSet::new(),
            measured: HashMap::new(),
            profiles: HashMap::new(),
            class_bodies: HashMap::new(),
            body_fns: HashMap::new(),
            best: None,
            body_best: HashMap::new(),
            stats: TuneStats::default(),
            rep_costs: Vec::new(),
            hw_trials: Vec::new(),
            last_err: None,
        }
    }

    /// Evaluate a batch of specs: Stage 1 serially through the shared
    /// database, then waves of *representatives*. Each wave classifies
    /// every pending variant against the recorded [`LowerProfile`]s —
    /// predicted collisions resolve instantly without Stage 2/3 — and
    /// claims one representative per unresolved (policy, ν) group or
    /// unseen loop-threshold class. Representatives run lowering,
    /// Stage-3 optimization, fingerprint, and (if the body is new)
    /// measurement end-to-end in one thread each, with no cross-stage
    /// barrier. Updates the incumbent deterministically (strict min
    /// cycles, ties broken by canonical enumeration order): accounting
    /// runs in batch order regardless of wave scheduling.
    pub(crate) fn evaluate(&mut self, specs: &[VariantSpec], budget: Option<f64>) {
        let fresh: Vec<VariantSpec> =
            specs.iter().copied().filter(|s| self.visited.insert(*s)).collect();
        let todo: Vec<(VariantSpec, Result<Arc<BasicProgram>, Error>)> =
            fresh.into_iter().map(|s| (s, self.synth.basic(s.policy, s.nu))).collect();
        if todo.is_empty() {
            return;
        }
        let program = self.program;
        let options = self.options;
        // Bodies that were already measured before this batch started:
        // any variant landing on one of them is shared, never a
        // representative, matching the historical accounting.
        let pre_batch: HashSet<BodyKey> = self.measured.keys().copied().collect();

        let mut batch_specs: Vec<VariantSpec> = Vec::with_capacity(todo.len());
        let mut basics: Vec<Option<Arc<BasicProgram>>> = Vec::with_capacity(todo.len());
        let mut slots: Vec<Option<Slot>> = Vec::with_capacity(todo.len());
        let mut pending: Vec<usize> = Vec::new();
        for (i, (spec, basic)) in todo.into_iter().enumerate() {
            batch_specs.push(spec);
            match basic {
                Ok(b) => {
                    basics.push(Some(b));
                    slots.push(None);
                    pending.push(i);
                }
                Err(e) => {
                    basics.push(None);
                    slots.push(Some(Slot::Err(e)));
                }
            }
        }

        // Wave loop: every wave resolves all predictable variants for
        // free and spends threads only on representatives. Deferred
        // variants wait for a representative of their group/class to
        // land; each wave resolves at least its representatives, so the
        // loop terminates.
        while !pending.is_empty() {
            let mut defer: Vec<usize> = Vec::new();
            let mut reps: Vec<usize> = Vec::new();
            let mut claimed_groups: HashSet<(Policy, usize)> = HashSet::new();
            let mut claimed_classes: HashSet<(Policy, usize, usize)> = HashSet::new();
            for &i in &pending {
                let spec = batch_specs[i];
                let group = (spec.policy, spec.nu);
                match self.profiles.get(&group) {
                    Some(profile) => {
                        let class = profile.loop_class(spec.loop_threshold);
                        if let Some(&key) = self.class_bodies.get(&(spec.policy, spec.nu, class)) {
                            // Predicted collision: skip Stage 2/3. Debug
                            // builds re-lower and prove the prediction.
                            #[cfg(debug_assertions)]
                            {
                                let basic = basics[i].as_ref().expect("pending items have basics");
                                let l = lower_variant(program, spec, basic, options)
                                    .expect("predicted variant must lower like its representative");
                                debug_assert_eq!(
                                    l.function.fingerprint(),
                                    key,
                                    "LowerProfile predicted a collision that does not hold for {spec}"
                                );
                                debug_assert!(
                                    self.body_fns.get(&key) == Some(&l.function),
                                    "predicted body differs from its representative's for {spec}"
                                );
                                debug_assert_eq!(
                                    &l.profile, profile,
                                    "LowerProfile differs across thresholds of one (policy, ν) group"
                                );
                            }
                            slots[i] = Some(Slot::Done { key, predicted: true });
                        } else if claimed_classes.insert((spec.policy, spec.nu, class)) {
                            reps.push(i);
                        } else {
                            defer.push(i);
                        }
                    }
                    None => {
                        if claimed_groups.insert(group) {
                            reps.push(i);
                        } else {
                            defer.push(i);
                        }
                    }
                }
            }
            // One thread per representative: lower → fingerprint → measure
            // (measurement is skipped when the body is already known).
            let measured = &self.measured;
            let results: Vec<(usize, RepResult)> = std::thread::scope(|scope| {
                let handles: Vec<_> = reps
                    .iter()
                    .map(|&i| {
                        let spec = batch_specs[i];
                        let basic = basics[i].clone().expect("pending items have basics");
                        scope.spawn(move || {
                            let r = lower_variant(program, spec, &basic, options).map(|lowered| {
                                let f = &lowered.function;
                                let key = f.fingerprint();
                                let mut lb_pruned = false;
                                let (m, measure_ms) = if measured.contains_key(&key) {
                                    (None, 0.0)
                                } else {
                                    let t = std::time::Instant::now();
                                    // Incumbent fast path: when a cycle
                                    // budget is set and the static
                                    // pressure bound already exceeds it,
                                    // the budgeted VM run is guaranteed
                                    // to be abandoned — skip it. Debug
                                    // builds run the VM anyway and
                                    // prove the prediction.
                                    let m = match budget {
                                        Some(b)
                                            if pressure_lower_bound(f, &options.machine) > b =>
                                        {
                                            lb_pruned = true;
                                            #[cfg(debug_assertions)]
                                            debug_assert!(
                                                matches!(
                                                    measure(program, f, options, budget),
                                                    Ok(None)
                                                ),
                                                "pressure_lower_bound exceeded the budget \
                                                     but the budgeted VM run was not cut off \
                                                     for {spec}"
                                            );
                                            Ok(None)
                                        }
                                        _ => measure(program, f, options, budget),
                                    };
                                    (Some(m), t.elapsed().as_secs_f64() * 1e3)
                                };
                                RepOut { lowered, key, measured: m, measure_ms, lb_pruned }
                            });
                            (i, r)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("autotune variant thread panicked"))
                    .collect()
            });
            // Join in wave order (ascending batch index): the first
            // writer wins on every shared map, which is deterministic
            // because wave membership follows batch order.
            for (i, r) in results {
                let spec = batch_specs[i];
                match r {
                    Err(e) => slots[i] = Some(Slot::Err(e)),
                    Ok(RepOut { lowered, key, measured: m, measure_ms, lb_pruned }) => {
                        let Lowered { function: f, profile, lower_ms, opt_ms } = lowered;
                        self.rep_costs.push(RepCost { spec, lower_ms, opt_ms, measure_ms });
                        if lb_pruned {
                            self.stats.lb_pruned += 1;
                        }
                        let class = profile.loop_class(spec.loop_threshold);
                        self.profiles.entry((spec.policy, spec.nu)).or_insert(profile);
                        self.class_bodies.entry((spec.policy, spec.nu, class)).or_insert(key);
                        match self.body_fns.entry(key) {
                            Entry::Occupied(kept) => debug_assert!(
                                *kept.get() == f,
                                "two different bodies share the fingerprint {key:?} ({spec})"
                            ),
                            Entry::Vacant(slot) => {
                                slot.insert(f);
                            }
                        }
                        if let Some(m) = m {
                            let outcome = match m {
                                Ok(Some(report)) => MeasureOutcome::Measured(Box::new(report)),
                                Ok(None) => MeasureOutcome::CutOff,
                                Err(e) => {
                                    self.last_err = Some(e);
                                    MeasureOutcome::Failed
                                }
                            };
                            self.measured.entry(key).or_insert(outcome);
                        }
                        slots[i] = Some(Slot::Done { key, predicted: false });
                    }
                }
            }
            pending = defer;
        }

        // Account every variant of the batch, in canonical batch order,
        // against the shared measurements. The first variant in batch
        // order to surface each new body is its accounting
        // representative; everything else on that body is shared.
        let mut batch_first: HashSet<BodyKey> = HashSet::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.expect("every batch item resolves to a slot") {
                Slot::Err(e) => self.last_err = Some(e),
                Slot::Done { key, predicted } => {
                    let spec = batch_specs[i];
                    let shared = pre_batch.contains(&key) || !batch_first.insert(key);
                    match self.measured.get(&key) {
                        Some(MeasureOutcome::Measured(report)) => {
                            self.stats.explored += 1;
                            if predicted {
                                self.stats.predicted += 1;
                            } else if shared {
                                self.stats.deduped += 1;
                            }
                            let cycles = report.cycles;
                            let ord = self.order.get(&spec).copied().unwrap_or(usize::MAX);
                            self.body_best
                                .entry(key)
                                .and_modify(|e| {
                                    if ord < e.0 {
                                        *e = (ord, spec);
                                    }
                                })
                                .or_insert((ord, spec));
                            let better = match &self.best {
                                None => true,
                                Some(b) => {
                                    cycles < b.report.cycles
                                        || (cycles == b.report.cycles && ord < b.ord)
                                }
                            };
                            if better {
                                self.best =
                                    Some(Best { spec, report: (**report).clone(), ord, key });
                            }
                        }
                        Some(MeasureOutcome::CutOff) => {
                            // cut off: provably slower than the incumbent
                            self.stats.explored += 1;
                            self.stats.pruned += 1;
                            if predicted {
                                self.stats.predicted += 1;
                            } else if shared {
                                self.stats.deduped += 1;
                            }
                        }
                        Some(MeasureOutcome::Failed) | None => {}
                    }
                }
            }
        }
    }

    fn incumbent_cycles(&self) -> Option<f64> {
        self.best.as_ref().map(|b| b.report.cycles)
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
            .measured
            .iter()
            .filter_map(|(key, outcome)| match outcome {
                MeasureOutcome::Measured(report) => {
                    let (ord, spec) = *self.body_best.get(key)?;
                    Some((report.cycles, ord, *key, spec))
                }
                _ => None,
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
            let function = self.body_fns.get(&key).expect("measured bodies are retained");
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
        let report = match self.measured.get(&key) {
            Some(MeasureOutcome::Measured(r)) => (**r).clone().with_measured(trials[win].measured),
            _ => unreachable!("candidates are measured bodies"),
        };
        self.stats.hw_ranked = trials.len();
        self.best = Some(Best { spec, report, ord, key });
        self.hw_trials = trials;
    }

    pub(crate) fn into_generated(mut self) -> Result<Generated, Error> {
        let db_stats = self.synth.stats();
        let stats = self.stats;
        let target = self.options.target;
        match self.best {
            Some(best) => {
                let function =
                    self.body_fns.remove(&best.key).expect("the winning body is retained");
                let variant = Variant { function, spec: best.spec, report: best.report };
                Ok(crate::pipeline::emit(
                    variant,
                    target,
                    db_stats,
                    stats,
                    self.rep_costs,
                    self.hw_trials,
                ))
            }
            None => Err(self.last_err.unwrap_or_else(|| {
                Error::Synth(slingen_synth::SynthError::Unsupported("empty search space".into()))
            })),
        }
    }
}

/// Exhaustive exploration: every point measured in one parallel batch.
fn run_exhaustive(search: &mut Search<'_>) {
    let specs = search.options.search.enumerate(search.options.target, search.options.nu);
    search.evaluate(&specs, None);
}

/// Greedy coordinate descent (see [`Strategy::Greedy`]).
fn run_greedy(search: &mut Search<'_>) {
    let space = &search.options.search;
    let policies = space.policies.clone();
    let nus = space.nus_for(search.options.target, search.options.nu);
    let thresholds = space.loop_thresholds.clone();

    // Canonical seed coordinates, a pure function of the space: the
    // widest ν the axis offers, and the axis member nearest the canonical
    // seed threshold.
    let seed_nu = nearest(&nus, search.options.nu);
    let seed_thr = nearest(&thresholds, SEED_LOOP_THRESHOLD);

    // Round 0: full policy sweep at the seed point — exactly the
    // historical two-policy fan-out, so the greedy winner can never lose
    // to it.
    let seed_batch: Vec<VariantSpec> = policies
        .iter()
        .map(|&policy| VariantSpec { policy, nu: seed_nu, loop_threshold: seed_thr })
        .collect();
    search.evaluate(&seed_batch, None);

    // Coordinate descent: sweep ν, threshold, then policy around the
    // incumbent; repeat until a full sweep improves nothing. Candidates
    // run under the incumbent's cycle budget, so dominated variants are
    // abandoned mid-measurement.
    const MAX_SWEEPS: usize = 3;
    for _ in 0..MAX_SWEEPS {
        let Some((best_spec, before)) = search.best.as_ref().map(|b| (b.spec, b.report.cycles))
        else {
            return; // every seed failed; nothing to descend from
        };
        for coord in 0..3 {
            let Some(cur) = search.best.as_ref().map(|b| b.spec) else {
                return;
            };
            let batch: Vec<VariantSpec> = match coord {
                0 => nus
                    .iter()
                    .filter(|&&nu| nu != cur.nu)
                    .map(|&nu| VariantSpec { nu, ..cur })
                    .collect(),
                1 => thresholds
                    .iter()
                    .filter(|&&t| t != cur.loop_threshold)
                    .map(|&t| VariantSpec { loop_threshold: t, ..cur })
                    .collect(),
                _ => policies
                    .iter()
                    .filter(|&&p| p != cur.policy)
                    .map(|&p| VariantSpec { policy: p, ..cur })
                    .collect(),
            };
            let budget = search.incumbent_cycles();
            search.evaluate(&batch, budget);
        }
        let unchanged = search
            .best
            .as_ref()
            .map(|b| b.spec == best_spec && b.report.cycles == before)
            .unwrap_or(true);
        if unchanged {
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
    /// A request served from a stored (or just re-materialized) win.
    fn replay(win: Arc<CachedWin>, coalesced: bool) -> Tuned {
        let stats = TuneStats { cache_hit: true, coalesced, ..win.stats };
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
/// and populating the cache.
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
pub(crate) fn tune(program: &Program, options: &Options) -> Result<Tuned, Error> {
    if options.search.is_empty() {
        return Err(Error::Synth(slingen_synth::SynthError::Unsupported(
            "empty autotuning search space".into(),
        )));
    }
    let key = cache_key(program, options);
    let mut ticket = match options.cache.claim(&key) {
        Claim::Hit { win, coalesced } => return Ok(Tuned::replay(win, coalesced)),
        Claim::Failed(e) => return Err(e),
        Claim::Owner(t) => t,
    };
    if let Some(p) = ticket.take_persisted() {
        match materialize_persisted(program, options, &p) {
            Ok(win) => return Ok(Tuned::replay(ticket.fulfill(win), false)),
            Err(reason) => {
                eprintln!(
                    "slingen: persisted entry for `{}` unusable ({reason}); re-searching",
                    program.name()
                );
            }
        }
    }
    options.cache.note_search();
    let mut search = Search::new(program, options);
    match options.search.strategy() {
        Strategy::Exhaustive => run_exhaustive(&mut search),
        Strategy::Greedy => run_greedy(&mut search),
    }
    if options.measure.wants_hardware() {
        search.rerank_hardware();
    }
    match search.into_generated() {
        Ok(g) => {
            let win = CachedWin::new(g.spec, g.function, g.c_code, g.report, g.db_stats, g.tuning);
            let win = ticket.fulfill(win);
            Ok(Tuned { win, stats: g.tuning, rep_costs: g.rep_costs, hw_trials: g.hw_trials })
        }
        Err(e) => {
            ticket.fail(e.clone());
            Err(e)
        }
    }
}
