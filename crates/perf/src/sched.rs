//! The dependence-aware port scheduler.
//!
//! Each dynamic instruction is decomposed into unit-slot demands on the
//! machine's resources and issued at the earliest cycle where (a) its
//! sources (registers and memory cells) are ready and (b) its primary
//! resource has a free slot. Completion times propagate through registers
//! and memory, so sequentially dependent divides — the factorization
//! pattern the paper highlights — serialize at the divider's occupancy,
//! while independent work overlaps.
//!
//! Hardware register renaming is modeled by *not* serializing on
//! write-after-write: writing a register simply replaces its ready time.

use crate::machine::{Machine, Resource};
use crate::report::Report;
use slingen_cir::fxhash::FxHashMap;
use slingen_cir::{BinOp, CStmt, Function, Instr, InstrClass, LaneSel};
use slingen_vm::{Event, Monitor};

/// How many 128-bit unit-slots a `width`-lane access consumes.
fn mem_units(width: usize, lanes: usize) -> f64 {
    // scalar (1 lane of any width-1 function) = 1 unit; width-2 vector = 1
    // unit (128-bit); width-4 = 2 units (256-bit split into two halves).
    if lanes <= 1 || width <= 2 {
        1.0
    } else {
        2.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Demand {
    resource: Resource,
    units: f64,
    latency: f64,
}

/// The demands of one instruction: a primary one (its latency defines
/// the result's availability) and at most one secondary one, which adds
/// pressure but not latency. Fixed-size, so decomposing an instruction
/// never allocates.
#[derive(Debug, Clone, Copy)]
struct Demands {
    primary: Demand,
    secondary: Option<Demand>,
}

impl Demands {
    fn one(resource: Resource, units: f64, latency: f64) -> Demands {
        Demands { primary: Demand { resource, units, latency }, secondary: None }
    }

    fn with(self, resource: Resource, units: f64, latency: f64) -> Demands {
        Demands { secondary: Some(Demand { resource, units, latency }), ..self }
    }

    fn iter(&self) -> impl Iterator<Item = Demand> {
        std::iter::once(self.primary).chain(self.secondary)
    }
}

/// Monitor that schedules the instruction stream (see module docs).
#[derive(Debug)]
pub struct Scheduler {
    machine: Machine,
    /// Next-free time (fractional cycles) per resource, indexed by
    /// [`Resource::index`].
    res_free: [f64; Resource::COUNT],
    /// Cumulative units consumed per resource; `None` until the first
    /// demand on it (the report lists only resources the run touched).
    res_units: [Option<f64>; Resource::COUNT],
    /// Dynamic instruction counts per class, indexed by discriminant.
    counts: [u64; InstrClass::ALL.len()],
    /// Ready time per scalar register (0 for one never written).
    sready: Vec<f64>,
    /// Ready time per vector register.
    vready: Vec<f64>,
    cellready: FxHashMap<(usize, i64), f64>,
    makespan: f64,
    flops: u64,
    instructions: u64,
    /// Cycle budget: once the makespan exceeds it the run is abandoned
    /// (the autotuner's early cutoff for dominated variants).
    budget: Option<f64>,
    exceeded: bool,
}

impl Scheduler {
    /// A scheduler for the given machine.
    pub fn new(machine: Machine) -> Self {
        Scheduler::with_budget(machine, None)
    }

    /// A scheduler that requests an early stop once the modeled makespan
    /// exceeds `budget` cycles. The makespan is monotone, so exceeding the
    /// budget mid-run proves the final estimate would too — abandoning the
    /// variant is sound pruning, not approximation.
    pub fn with_budget(machine: Machine, budget: Option<f64>) -> Self {
        Scheduler {
            machine,
            res_free: [0.0; Resource::COUNT],
            res_units: [None; Resource::COUNT],
            counts: [0; InstrClass::ALL.len()],
            sready: Vec::new(),
            vready: Vec::new(),
            cellready: FxHashMap::default(),
            makespan: 0.0,
            flops: 0,
            instructions: 0,
            budget,
            exceeded: false,
        }
    }

    /// Whether the cycle budget was exceeded (the run was cut short and
    /// the report would be a lower bound, not an estimate).
    pub fn budget_exceeded(&self) -> bool {
        self.exceeded
    }

    fn sources_ready(&self, ev: &Event<'_>) -> f64 {
        let mut t: f64 = 0.0;
        ev.instr.for_each_sreg_read(|r| {
            t = t.max(self.sready.get(r.0).copied().unwrap_or(0.0));
        });
        ev.instr.for_each_vreg_read(|r| {
            t = t.max(self.vready.get(r.0).copied().unwrap_or(0.0));
        });
        for cell in &ev.reads {
            t = t.max(self.cellready.get(cell).copied().unwrap_or(0.0));
        }
        t
    }

    /// Occupy `d.resource` from `at` (or from when it frees up, if
    /// later) and return the issue time.
    fn occupy(&mut self, d: Demand, at: f64) -> f64 {
        let i = d.resource.index();
        let issue = at.max(self.res_free[i]);
        self.res_free[i] = issue + d.units / self.machine.capacity(d.resource);
        *self.res_units[i].get_or_insert(0.0) += d.units;
        issue
    }

    /// Final report.
    pub fn finish(self) -> Report {
        let res_units =
            Resource::ALL.iter().filter_map(|&r| Some((r, self.res_units[r.index()]?))).collect();
        let counts = InstrClass::ALL
            .iter()
            .map(|&c| (c, self.counts[c as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        Report::new(self.machine, self.makespan, self.flops, self.instructions, res_units, counts)
    }
}

/// Set `ready[reg] = t`, growing the table as registers appear.
fn set_ready(ready: &mut Vec<f64>, reg: usize, t: f64) {
    if reg >= ready.len() {
        ready.resize(reg + 1, 0.0);
    }
    ready[reg] = t;
}

/// Decompose one instruction into its resource demands (see
/// [`Demands`]). This single decomposition drives both the dynamic
/// scheduler and the static [`pressure_lower_bound`], so the bound
/// cannot drift from the model.
fn demands(m: &Machine, instr: &Instr, width: usize) -> Demands {
    match instr {
        Instr::SLoad { .. } => Demands::one(Resource::Load, 1.0, m.load_latency),
        Instr::SStore { .. } => Demands::one(Resource::Store, 1.0, m.store_latency),
        Instr::VLoad { lanes, .. } => {
            let active = lanes.iter().flatten().count();
            if contiguous(lanes) {
                Demands::one(Resource::Load, mem_units(width, active), m.load_latency)
            } else {
                // strided/gathered: one scalar load per lane plus the
                // packing shuffles the Loader would emit.
                let d = Demands::one(Resource::Load, active as f64, m.load_latency);
                if active > 1 {
                    d.with(Resource::Shuffle, (active - 1) as f64, m.shuffle_latency)
                } else {
                    d
                }
            }
        }
        Instr::VStore { lanes, .. } => {
            let active = lanes.iter().flatten().count();
            if contiguous(lanes) {
                Demands::one(Resource::Store, mem_units(width, active), m.store_latency)
            } else {
                let d = Demands::one(Resource::Store, active as f64, m.store_latency);
                if active > 1 {
                    d.with(Resource::Shuffle, (active - 1) as f64, m.shuffle_latency)
                } else {
                    d
                }
            }
        }
        Instr::SBin { op, .. } | Instr::VBin { op, .. } => {
            let vector = matches!(instr, Instr::VBin { .. }) && width > 1;
            match op {
                BinOp::Mul => Demands::one(Resource::FMul, 1.0, m.fmul_latency),
                BinOp::Add | BinOp::Sub => Demands::one(Resource::FAdd, 1.0, m.fadd_latency),
                BinOp::Div => {
                    let c = if vector { m.div_vector_cycles } else { m.div_scalar_cycles };
                    Demands::one(Resource::Divider, c, c)
                }
            }
        }
        // a fused op takes the place of the add/sub it absorbed: it issues
        // on the add port, so contraction never delays the in-order add
        // schedule and frees the multiply port of the absorbed product
        Instr::SFma { .. } | Instr::VFma { .. } => Demands::one(Resource::FAdd, 1.0, m.fma_latency),
        Instr::SSqrt { .. } => {
            let c = m.div_scalar_cycles;
            Demands::one(Resource::Divider, c, c)
        }
        Instr::SMov { .. } | Instr::VMov { .. } => Demands::one(Resource::Mov, 1.0, m.mov_latency),
        Instr::VBroadcast { .. } | Instr::VShuffle { .. } | Instr::VExtract { .. } => {
            if crosses_lanes(instr, width) {
                let latency = m.shuffle_latency + m.cross_lane_latency;
                Demands::one(Resource::Shuffle, m.cross_lane_units, latency)
            } else {
                Demands::one(Resource::Shuffle, 1.0, m.shuffle_latency)
            }
        }
        Instr::VPack { elems, .. } => {
            // a tree of inserts/unpacks: active−1 shuffles, ⌈log2 active⌉
            // of them on the critical path
            let active = elems.iter().flatten().count().max(2);
            let depth = (active as f64).log2().ceil();
            let (mut units, mut latency) = ((active - 1) as f64, m.shuffle_latency * depth);
            if crosses_lanes(instr, width) {
                // one of the inserts moves a half across
                units += m.cross_lane_units - 1.0;
                latency += m.cross_lane_latency;
            }
            Demands::one(Resource::Shuffle, units, latency)
        }
        Instr::VBlend { .. } => Demands::one(Resource::Blend, 1.0, m.blend_latency),
        Instr::VReduceAdd { .. } => {
            // log2(width) shuffle+add pairs
            let steps = (width.max(2) as f64).log2().ceil();
            Demands::one(Resource::FAdd, steps, m.fadd_latency * steps).with(
                Resource::Shuffle,
                steps,
                m.shuffle_latency,
            )
        }
    }
}

/// Whether a shuffle-port instruction crosses the 128-bit lanes of a
/// 256-bit register: a shuffle that moves a lane between halves, a
/// broadcast, an extract of lane 2 or 3, or a pack of more than 2 lanes.
/// These compile to `vperm2f128`, `vinsertf128` or `vextractf128`, which
/// cost [`Machine::cross_lane_latency`] more than an in-lane step and
/// occupy the shuffle port for [`Machine::cross_lane_units`] slots.
/// Registers of ν ≤ 2 have one lane and never cross.
fn crosses_lanes(instr: &Instr, width: usize) -> bool {
    width >= 4
        && match instr {
            Instr::VShuffle { sel, .. } => sel.iter().enumerate().any(|(i, s)| match *s {
                LaneSel::A(j) | LaneSel::B(j) => i / 2 != j / 2,
                LaneSel::Zero => false,
            }),
            Instr::VBroadcast { .. } => true,
            Instr::VExtract { lane, .. } => *lane >= 2,
            Instr::VPack { elems, .. } => elems.iter().flatten().count() > 2,
            _ => false,
        }
}

/// Accumulated static pressure for [`pressure_lower_bound`].
#[derive(Default)]
struct Pressure {
    /// Trip-count-weighted unit totals per resource.
    units: [f64; Resource::COUNT],
    /// Largest per-event `units/capacity − latency` excess per resource
    /// (unweighted): the slack a final event could hide behind its own
    /// occupancy.
    excess: [f64; Resource::COUNT],
    /// Largest single-event latency.
    max_latency: f64,
}

fn pressure_walk(stmts: &[CStmt], mult: f64, width: usize, m: &Machine, acc: &mut Pressure) {
    for s in stmts {
        match s {
            CStmt::I(ins) => {
                for d in demands(m, ins, width).iter() {
                    let i = d.resource.index();
                    acc.units[i] += mult * d.units;
                    let cap = m.capacity(d.resource);
                    let e = (d.units / cap - d.latency).max(0.0);
                    if e > acc.excess[i] {
                        acc.excess[i] = e;
                    }
                    if d.latency > acc.max_latency {
                        acc.max_latency = d.latency;
                    }
                }
            }
            CStmt::For { lo, hi, step, body, .. } => {
                // Only constant-bound loops contribute; bounds that
                // depend on an outer induction variable (triangular
                // loops) are skipped — their body runs ≥ 0 times, so
                // omitting it keeps the bound a lower bound.
                if let (Some(l), Some(h)) = (lo.as_constant(), hi.as_constant()) {
                    let trips = ((h - l).max(0) + step - 1) / step;
                    if trips > 0 {
                        pressure_walk(body, mult * trips as f64, width, m, acc);
                    }
                }
            }
            CStmt::If { .. } => {
                // Which branch runs is data-dependent; either runs ≥ 0
                // times, so skipping both is sound for a lower bound.
            }
        }
    }
}

/// A cheap, sound lower bound on the estimate [`crate::measure_budgeted`]
/// would report for `f`: the best of the per-resource throughput bounds,
/// the largest single-instruction latency and the code-footprint floor,
/// from one static walk of the body (no VM execution, no dependence
/// tracking).
///
/// Soundness of the throughput bound per resource `R`: the scheduler
/// advances `R`'s next-free time by `units/capacity` per event, so the
/// *last* event on `R` issues no earlier than `total_units/capacity −
/// units_last/capacity`, and the makespan covers its completion at
/// `issue + latency_last`. Subtracting the largest per-event
/// `units/capacity − latency` excess (clamped at 0) therefore keeps the
/// bound below any possible makespan regardless of which event is last
/// (the clamp matters for [`Instr::VReduceAdd`]'s shuffle leg, whose
/// occupancy exceeds its latency).
///
/// The autotuner compares this bound against the incumbent's cycle
/// budget: `pressure_lower_bound(f) > budget` proves the budgeted VM run
/// would be abandoned, so the variant can be discarded without executing
/// it ([`crate::measure_budgeted`]'s strict `makespan > budget` cutoff).
pub fn pressure_lower_bound(f: &Function, machine: &Machine) -> f64 {
    let mut acc = Pressure::default();
    pressure_walk(&f.body, 1.0, f.width, machine, &mut acc);
    let mut lb = acc.max_latency.max(machine.footprint_cycles(f.static_instr_count()));
    for r in Resource::ALL {
        let i = r.index();
        lb = lb.max(acc.units[i] / machine.capacity(r) - acc.excess[i]);
    }
    lb
}

fn contiguous(lanes: &[Option<i64>]) -> bool {
    let active = lanes.iter().take_while(|l| l.is_some()).count();
    lanes[..active].iter().enumerate().all(|(i, l)| *l == Some(i as i64))
        && lanes[active..].iter().all(|l| l.is_none())
        && active > 0
}

impl Monitor for Scheduler {
    fn event(&mut self, ev: &Event<'_>) {
        self.instructions += 1;
        self.flops += ev.instr.flops(ev.width);
        self.counts[ev.instr.class() as usize] += 1;

        let ready = self.sources_ready(ev);
        let dem = demands(&self.machine, ev.instr, ev.width);

        // issue on the primary resource
        let issue = self.occupy(dem.primary, ready);
        let mut done = issue + dem.primary.latency;

        // a secondary demand occupies its resource and may delay completion
        if let Some(d) = dem.secondary {
            let s_issue = self.occupy(d, issue);
            done = done.max(s_issue + d.latency);
        }

        if let Some(r) = ev.instr.sreg_write() {
            set_ready(&mut self.sready, r.0, done);
        }
        if let Some(r) = ev.instr.vreg_write() {
            set_ready(&mut self.vready, r.0, done);
        }
        for cell in &ev.writes {
            self.cellready.insert(*cell, done);
        }
        self.makespan = self.makespan.max(done);
        if let Some(b) = self.budget {
            if self.makespan > b {
                self.exceeded = true;
            }
        }
    }

    fn should_stop(&self) -> bool {
        self.exceeded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use slingen_cir::{Affine, BufKind, FunctionBuilder, MemRef, SReg};
    use slingen_vm::BufferSet;

    fn run(f: &slingen_cir::Function, bufs: &mut BufferSet) -> Report {
        crate::measure(f, bufs, None, &Machine::sandy_bridge()).unwrap()
    }

    /// Independent multiplies stream at 1/cycle; a dependent chain pays the
    /// 5-cycle latency each.
    #[test]
    fn independent_vs_dependent_multiplies() {
        // independent: 64 multiplies on distinct registers
        let mut b = FunctionBuilder::new("ind", 1);
        let o = b.buffer("o", 64, BufKind::ParamOut);
        let mut regs = Vec::new();
        for _ in 0..64 {
            regs.push(b.sbin(slingen_cir::BinOp::Mul, 1.5, 2.5));
        }
        for (i, r) in regs.iter().enumerate() {
            b.sstore(*r, MemRef::new(o, i as i64));
        }
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let ind = run(&f, &mut bufs);

        // dependent: 64 multiplies in one chain
        let mut b = FunctionBuilder::new("dep", 1);
        let o = b.buffer("o", 1, BufKind::ParamOut);
        let mut acc = b.smov(1.0);
        for _ in 0..64 {
            acc = b.sbin(slingen_cir::BinOp::Mul, acc, 1.001);
        }
        b.sstore(acc, MemRef::new(o, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let dep = run(&f, &mut bufs);

        assert!(
            dep.cycles > ind.cycles * 3.0,
            "dependent chain ({}) must be much slower than independent ({})",
            dep.cycles,
            ind.cycles
        );
        assert!(ind.cycles >= 64.0, "64 multiplies need >= 64 cycles on one port");
    }

    /// A fused multiply-add chain is modeled faster than the equivalent
    /// mul+add chain: one add-port issue at fma latency instead of a
    /// mul+add latency sum per link, and no multiply-port pressure.
    #[test]
    fn fma_chain_beats_mul_add_chain() {
        let chain = |fused: bool| {
            let mut b = FunctionBuilder::new("ch", 1);
            let o = b.buffer("o", 1, BufKind::ParamOut);
            let mut acc = b.smov(1.0);
            for _ in 0..32 {
                acc = if fused {
                    b.sfma(slingen_cir::FmaKind::MulAdd, acc, 1.001, 0.5)
                } else {
                    let m = b.sbin(slingen_cir::BinOp::Mul, acc, 1.001);
                    b.sbin(slingen_cir::BinOp::Add, m, 0.5)
                };
            }
            b.sstore(acc, MemRef::new(o, 0));
            let f = b.finish();
            let mut bufs = BufferSet::for_function(&f);
            crate::measure(&f, &mut bufs, None, &Machine::from_target(slingen_cir::Target::Avx2Fma))
                .unwrap()
        };
        let fused = chain(true);
        let two_op = chain(false);
        // chain of 32: fused ~= 32*3 cycles (fma completes in the add
        // latency), two-op ~= 32*(5+3)
        assert!(
            fused.cycles < two_op.cycles,
            "fma chain ({}) must beat mul+add chain ({})",
            fused.cycles,
            two_op.cycles
        );
        assert!(fused.cycles >= 32.0 * 3.0);
        assert_eq!(fused.flops, two_op.flops, "fma counts both flops");
        assert_eq!(fused.count(slingen_cir::InstrClass::Fma), 32);
    }

    /// Sequentially dependent divisions serialize at the divider occupancy
    /// (the paper's small-size bottleneck).
    #[test]
    fn division_chains_dominate() {
        let mut b = FunctionBuilder::new("div", 1);
        let o = b.buffer("o", 1, BufKind::ParamOut);
        let mut acc = b.smov(1.0e9);
        for _ in 0..8 {
            acc = b.sbin(slingen_cir::BinOp::Div, acc, 1.5);
        }
        b.sstore(acc, MemRef::new(o, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        assert!(rep.cycles >= 8.0 * 22.0, "8 chained divs >= 176 cycles, got {}", rep.cycles);
        assert_eq!(rep.bottleneck(), Resource::Divider);
    }

    /// Vector loads limited by the 2×128-bit load units: at most one
    /// 256-bit load per cycle.
    #[test]
    fn load_throughput_bound() {
        let mut b = FunctionBuilder::new("ld", 4);
        let x = b.buffer("x", 512, BufKind::ParamIn);
        let o = b.buffer("o", 4, BufKind::ParamOut);
        let mut last = None;
        for i in 0..128 {
            last = Some(b.vload_contig(MemRef::new(x, (i * 4) as i64)));
        }
        b.vstore_contig(last.unwrap(), MemRef::new(o, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        assert!(rep.cycles >= 128.0, "128 256-bit loads need >= 128 cycles, got {}", rep.cycles);
        assert_eq!(rep.bottleneck(), Resource::Load);
    }

    /// Strided (vertical) accesses cost more than contiguous ones.
    #[test]
    fn strided_loads_cost_more() {
        let make = |strided: bool| {
            let mut b = FunctionBuilder::new("s", 4);
            let x = b.buffer("x", 256, BufKind::ParamIn);
            let o = b.buffer("o", 4, BufKind::ParamOut);
            let mut last = None;
            for i in 0..32 {
                let lanes = if strided {
                    vec![Some(0), Some(8), Some(16), Some(24)]
                } else {
                    vec![Some(0), Some(1), Some(2), Some(3)]
                };
                last = Some(b.vload(MemRef::new(x, (i * 4) as i64), lanes));
            }
            b.vstore_contig(last.unwrap(), MemRef::new(o, 0));
            let f = b.finish();
            let mut bufs = BufferSet::for_function(&f);
            run(&f, &mut bufs).cycles
        };
        assert!(make(true) > 1.5 * make(false));
    }

    /// Store-to-load dependences serialize through memory cells.
    #[test]
    fn memory_dependences_tracked() {
        let mut b = FunctionBuilder::new("mem", 1);
        let t = b.buffer("t", 1, BufKind::ParamInOut);
        // chain: load, add, store, repeated — every iteration depends on
        // the previous through t[0]
        for _ in 0..16 {
            let r = b.sload(MemRef::new(t, 0));
            let a = b.sbin(slingen_cir::BinOp::Add, r, 1.0);
            b.sstore(a, MemRef::new(t, 0));
        }
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        // each round trip >= load latency + add latency + store latency
        assert!(
            rep.cycles >= 16.0 * (4.0 + 3.0),
            "memory chain must serialize, got {}",
            rep.cycles
        );
    }

    /// A cycle budget abandons the run as soon as the makespan exceeds it;
    /// an unexceeded budget returns the same report as no budget.
    #[test]
    fn budget_cutoff_abandons_dominated_runs() {
        let mut b = FunctionBuilder::new("div", 1);
        let o = b.buffer("o", 1, BufKind::ParamOut);
        let mut acc = b.smov(1.0e9);
        for _ in 0..8 {
            acc = b.sbin(slingen_cir::BinOp::Div, acc, 1.5);
        }
        b.sstore(acc, MemRef::new(o, 0));
        let f = b.finish();

        let mut bufs = BufferSet::for_function(&f);
        let full = crate::measure(&f, &mut bufs, None, &Machine::sandy_bridge()).unwrap();

        let mut bufs = BufferSet::for_function(&f);
        let cut =
            crate::measure_budgeted(&f, &mut bufs, &Machine::sandy_bridge(), Some(50.0)).unwrap();
        assert!(cut.is_none(), "8 chained divs must blow a 50-cycle budget");

        let mut bufs = BufferSet::for_function(&f);
        let kept = crate::measure_budgeted(
            &f,
            &mut bufs,
            &Machine::sandy_bridge(),
            Some(full.cycles + 1.0),
        )
        .unwrap()
        .expect("budget above the true cost must not trigger");
        assert_eq!(kept.cycles, full.cycles);
        assert_eq!(kept.instructions, full.instructions);
    }

    /// A pack of `k` active lanes costs `k - 1` shuffle issues with
    /// `⌈log2 k⌉` shuffle latencies on its critical path, plus the
    /// lane-crossing charges when `k > 2` at ν = 4, and the static bound
    /// stays below the scheduled makespan on a body of packs.
    #[test]
    fn pack_demand_and_lower_bound() {
        let m = Machine::sandy_bridge();
        let (sh, cross, extra) =
            (m.shuffle_latency, m.cross_lane_latency, m.cross_lane_units - 1.0);
        for (elems, units, latency) in [
            (vec![Some(SReg(0).into()), Some(SReg(1).into())], 1.0, sh),
            (
                vec![Some(SReg(0).into()), None, Some(2.0.into()), Some(SReg(1).into())],
                2.0 + extra,
                2.0 * sh + cross,
            ),
            (vec![Some(SReg(0).into()); 4], 3.0 + extra, 2.0 * sh + cross),
        ] {
            let d = demands(&m, &Instr::VPack { dst: slingen_cir::VReg(0), elems }, 4);
            assert_eq!(d.secondary, None);
            assert_eq!(d.primary.resource, Resource::Shuffle);
            assert_eq!((d.primary.units, d.primary.latency), (units, latency));
        }

        let mut b = FunctionBuilder::new("packs", 4);
        let x = b.buffer("x", 64, BufKind::ParamIn);
        let o = b.buffer("o", 64, BufKind::ParamOut);
        for i in 0..16 {
            let s: Vec<_> = (0..4).map(|l| b.sload(MemRef::new(x, 4 * i + l))).collect();
            let v = b.vpack(s.iter().map(|&r| Some(r.into())).collect());
            b.vstore_contig(v, MemRef::new(o, 4 * i));
        }
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        let lb = pressure_lower_bound(&f, &m);
        assert!(lb <= rep.cycles, "bound {lb} above makespan {}", rep.cycles);
        assert_eq!(rep.count(InstrClass::Shuffle), 16);
    }

    /// At ν = 4 a shuffle pays the lane-crossing latency and occupancy
    /// only when a lane changes 128-bit half; broadcasts and high-lane
    /// extracts always cross, and ν = 2 never pays them.
    #[test]
    fn lane_crossing_charges() {
        use slingen_cir::{LaneSel::*, VReg};
        let m = Machine::sandy_bridge();
        let in_lane = (1.0, m.shuffle_latency);
        let crossing = (m.cross_lane_units, m.shuffle_latency + m.cross_lane_latency);
        let (a, b, dst) = (VReg(0), VReg(1), VReg(2));
        for (instr, width, cost) in [
            (Instr::VShuffle { dst, a, b, sel: vec![A(1), B(0), A(3), B(2)] }, 4, in_lane),
            (Instr::VShuffle { dst, a, b, sel: vec![A(2), A(1), Zero, B(3)] }, 4, crossing),
            (Instr::VShuffle { dst, a, b, sel: vec![A(1), B(0)] }, 2, in_lane),
            (Instr::VBroadcast { dst, src: 1.0.into() }, 4, crossing),
            (Instr::VBroadcast { dst, src: 1.0.into() }, 2, in_lane),
            (Instr::VExtract { dst: SReg(0), src: a, lane: 1 }, 4, in_lane),
            (Instr::VExtract { dst: SReg(0), src: a, lane: 2 }, 4, crossing),
        ] {
            let d = demands(&m, &instr, width);
            assert_eq!(d.primary.resource, Resource::Shuffle);
            assert_eq!((d.primary.units, d.primary.latency), cost, "{instr:?} at ν = {width}");
        }
    }

    /// A body whose code outgrows L1i is estimated at no less than its
    /// fetch time, and the static bound includes that floor.
    #[test]
    fn code_footprint_floor() {
        let m = Machine::sandy_bridge();
        let fits = (m.l1i_bytes / m.bytes_per_instr) as usize;
        assert_eq!(m.footprint_cycles(fits), 0.0);
        let n = 2 * fits;
        let mut b = FunctionBuilder::new("big", 1);
        let x = b.buffer("x", 1, BufKind::ParamOut);
        let mut last = b.smov(0.0);
        for i in 1..n {
            last = b.smov(i as f64);
        }
        b.sstore(last, MemRef::new(x, 0));
        let f = b.finish();
        let floor = m.footprint_cycles(f.static_instr_count());
        assert_eq!(floor, (n + 1) as f64 * m.bytes_per_instr / m.fetch_bytes_per_cycle);
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        assert_eq!(rep.cycles, floor, "independent moves issue faster than they fetch");
        assert_eq!(pressure_lower_bound(&f, &m), floor);
        let mut bufs = BufferSet::for_function(&f);
        let cut = crate::measure_budgeted(&f, &mut bufs, &m, Some(floor - 1.0)).unwrap();
        assert!(cut.is_none(), "a floor above the budget abandons the run");
    }

    /// Loop-var-dependent addressing resolves per iteration.
    #[test]
    fn rolled_loops_schedule_each_iteration() {
        let mut b = FunctionBuilder::new("loop", 4);
        let x = b.buffer("x", 64, BufKind::ParamIn);
        let y = b.buffer("y", 64, BufKind::ParamInOut);
        let i = b.begin_for(0, 64, 4);
        let vx = b.vload_contig(MemRef::new(x, Affine::var(i)));
        let vy = b.vload_contig(MemRef::new(y, Affine::var(i)));
        let s = b.vbin(slingen_cir::BinOp::Add, vx, vy);
        b.vstore_contig(s, MemRef::new(y, Affine::var(i)));
        b.end_for();
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let rep = run(&f, &mut bufs);
        assert_eq!(rep.flops, 64);
        assert!(rep.cycles >= 16.0);
        assert!(rep.flops_per_cycle() <= 8.0);
    }
}
