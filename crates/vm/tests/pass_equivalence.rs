//! Property-based validation of the Stage-3 optimization pipeline: for
//! randomized straight-line C-IR programs, `optimize` must preserve VM
//! semantics exactly, at every pass configuration.

use proptest::prelude::*;
use slingen_cir::passes::{optimize, PassConfig};
use slingen_cir::{Affine, BinOp, BufKind, FunctionBuilder, MemRef};
use slingen_vm::{BufferSet, NullMonitor};

/// A tiny random program: a sequence of ops over two 16-element buffers
/// and a small register pool, with loops sprinkled in.
#[derive(Debug, Clone)]
enum Op {
    Load { buf: u8, off: u8 },
    Store { buf: u8, off: u8, reg: u8 },
    Bin { op: u8, a: u8, b: u8 },
    Sqrt { a: u8 },
    VLoad { buf: u8, off: u8, masked: bool },
    VStore { buf: u8, off: u8, vreg: u8 },
    VBin { op: u8, a: u8, b: u8 },
    Bcast { a: u8 },
    Loop { body_len: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2u8, 0..12u8).prop_map(|(buf, off)| Op::Load { buf, off }),
        (0..2u8, 0..12u8, 0..6u8).prop_map(|(buf, off, reg)| Op::Store { buf, off, reg }),
        (0..3u8, 0..6u8, 0..6u8).prop_map(|(op, a, b)| Op::Bin { op, a, b }),
        (0..6u8,).prop_map(|(a,)| Op::Sqrt { a }),
        (0..2u8, 0..12u8, any::<bool>()).prop_map(|(buf, off, masked)| Op::VLoad {
            buf,
            off,
            masked
        }),
        (0..2u8, 0..12u8, 0..4u8).prop_map(|(buf, off, vreg)| Op::VStore { buf, off, vreg }),
        (0..3u8, 0..4u8, 0..4u8).prop_map(|(op, a, b)| Op::VBin { op, a, b }),
        (0..6u8,).prop_map(|(a,)| Op::Bcast { a }),
        (1..4u8,).prop_map(|(body_len,)| Op::Loop { body_len }),
    ]
}

fn build(ops: &[Op]) -> slingen_cir::Function {
    let mut b = FunctionBuilder::new("rand", 4);
    let bufs = [b.buffer("x", 16, BufKind::ParamInOut), b.buffer("y", 16, BufKind::ParamInOut)];
    // seed registers so all indices are defined
    let mut sregs = Vec::new();
    for i in 0..6 {
        sregs.push(b.smov(1.0 + i as f64 * 0.25));
    }
    let mut vregs = Vec::new();
    for i in 0..4 {
        vregs.push(b.vbroadcast(0.5 + i as f64 * 0.5));
    }
    let binop = |o: u8| match o {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        _ => BinOp::Mul,
    };
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            Op::Load { buf, off } => {
                let r = b.sload(MemRef::new(bufs[buf as usize], off as i64));
                sregs[(off % 6) as usize] = r;
            }
            Op::Store { buf, off, reg } => {
                b.sstore(sregs[reg as usize], MemRef::new(bufs[buf as usize], off as i64));
            }
            Op::Bin { op, a, b: bb } => {
                let r = b.sbin(binop(op), sregs[a as usize], sregs[bb as usize]);
                sregs[(a % 6) as usize] = r;
            }
            Op::Sqrt { a } => {
                // keep the domain positive: square first
                let sq = b.sbin(BinOp::Mul, sregs[a as usize], sregs[a as usize]);
                let r = b.ssqrt(sq);
                sregs[(a % 6) as usize] = r;
            }
            Op::VLoad { buf, off, masked } => {
                let lanes = if masked {
                    vec![Some(0), Some(1), None, Some(3)]
                } else {
                    vec![Some(0), Some(1), Some(2), Some(3)]
                };
                let v = b.vload(MemRef::new(bufs[buf as usize], off as i64), lanes);
                vregs[(off % 4) as usize] = v;
            }
            Op::VStore { buf, off, vreg } => {
                b.vstore_contig(vregs[vreg as usize], MemRef::new(bufs[buf as usize], off as i64));
            }
            Op::VBin { op, a, b: bb } => {
                let v = b.vbin(binop(op), vregs[a as usize], vregs[bb as usize]);
                vregs[(a % 4) as usize] = v;
            }
            Op::Bcast { a } => {
                let v = b.vbroadcast(sregs[a as usize]);
                vregs[(a % 4) as usize] = v;
            }
            Op::Loop { body_len } => {
                let lv = b.begin_for(0, 3, 1);
                let take = (body_len as usize).min(ops.len() - i - 1);
                for op in &ops[i + 1..i + 1 + take] {
                    if let Op::Store { buf, off, reg } = op {
                        let addr = MemRef::new(
                            bufs[*buf as usize],
                            Affine::var(lv).plus(&Affine::constant(*off as i64 % 8)),
                        );
                        b.sstore(sregs[*reg as usize], addr);
                    }
                }
                b.end_for();
                i += take;
            }
        }
        i += 1;
    }
    b.finish()
}

fn run(f: &slingen_cir::Function) -> (Vec<f64>, Vec<f64>) {
    let mut bufs = BufferSet::for_function(f);
    let x: Vec<f64> = (0..16).map(|i| (i as f64) * 0.3 - 2.0).collect();
    let y: Vec<f64> = (0..16).map(|i| 5.0 - (i as f64) * 0.7).collect();
    bufs.set(slingen_cir::BufId(0), &x);
    bufs.set(slingen_cir::BufId(1), &y);
    slingen_vm::execute(f, &mut bufs, &mut NullMonitor).unwrap();
    (bufs.get(slingen_cir::BufId(0)).to_vec(), bufs.get(slingen_cir::BufId(1)).to_vec())
}

// ---------------------------------------------------------------------
// Whole-app equivalence: for every benchmark program in `slingen::apps`,
// the optimized function must produce bit-identical outputs to the
// unoptimized lowering on seeded workloads, at every vector width and
// policy. This is the regression guard for the pass-pipeline refactor.
// ---------------------------------------------------------------------

mod apps_equivalence {
    use slingen_cir::passes::{optimize, PassConfig};
    use slingen_cir::{BufId, Function};
    use slingen_lgen::{lower_program, BufferMap, LowerOptions};
    use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
    use slingen_vm::{BufferSet, NullMonitor};

    /// Execute `f` on the program's seeded workload; return the final
    /// contents of every live-out parameter buffer.
    fn run(
        program: &slingen_ir::Program,
        f: &Function,
        nu: usize,
        seed: u64,
    ) -> Vec<(BufId, Vec<f64>)> {
        let mut fb = slingen_cir::FunctionBuilder::new("probe", nu);
        let map = BufferMap::build(program, &mut fb);
        let mut bufs = BufferSet::for_function(f);
        for (op, data) in slingen::workload::inputs(program, seed) {
            bufs.set(map.buf(op), &data);
        }
        slingen_vm::execute(f, &mut bufs, &mut NullMonitor).expect("vm execution");
        f.params()
            .filter(|(_, d)| d.kind.live_out())
            .map(|(id, _)| (id, bufs.get(id).to_vec()))
            .collect()
    }

    fn assert_equivalent(program: &slingen_ir::Program, nu: usize, policy: Policy, seed: u64) {
        let mut db = AlgorithmDb::new();
        let basic = synthesize_program(program, policy, nu, &mut db).expect("synthesis");
        let opts = LowerOptions { nu, loop_threshold: 64 };
        let f0 = lower_program(program, &basic, program.name(), &opts).expect("lowering");
        let mut fopt = f0.clone();
        optimize(&mut fopt, &PassConfig::default());
        let baseline = run(program, &f0, nu, seed);
        let optimized = run(program, &fopt, nu, seed);
        assert_eq!(baseline.len(), optimized.len());
        for ((id, want), (id2, got)) in baseline.iter().zip(&optimized) {
            assert_eq!(id, id2);
            assert_eq!(want.len(), got.len());
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert!(
                    w.to_bits() == g.to_bits(),
                    "{} nu={nu} {policy}: buffer {id} element {i}: {w:?} vs {g:?}",
                    program.name(),
                );
            }
        }
    }

    fn check_app(program: slingen_ir::Program) {
        for nu in [1usize, 4] {
            for policy in Policy::ALL {
                assert_equivalent(&program, nu, policy, 0x5EED);
            }
        }
    }

    #[test]
    fn potrf_bit_identical() {
        check_app(slingen::apps::potrf(8));
    }

    #[test]
    fn trsyl_bit_identical() {
        check_app(slingen::apps::trsyl(8));
    }

    #[test]
    fn trlya_bit_identical() {
        check_app(slingen::apps::trlya(8));
    }

    #[test]
    fn trtri_bit_identical() {
        check_app(slingen::apps::trtri(8));
    }

    #[test]
    fn kf_bit_identical() {
        check_app(slingen::apps::kf(4));
    }

    #[test]
    fn gpr_bit_identical() {
        check_app(slingen::apps::gpr(4));
    }

    #[test]
    fn l1a_bit_identical() {
        check_app(slingen::apps::l1a(4));
    }

    // -----------------------------------------------------------------
    // Golden static-instruction counts: optimization *quality* must not
    // silently regress. Update these deliberately (with a note in the
    // PR) if a pass change improves or trades off code size.
    // -----------------------------------------------------------------

    fn optimized_count(program: &slingen_ir::Program) -> usize {
        let mut db = AlgorithmDb::new();
        let basic = synthesize_program(program, Policy::Lazy, 4, &mut db).unwrap();
        let opts = LowerOptions { nu: 4, loop_threshold: 64 };
        let mut f = lower_program(program, &basic, program.name(), &opts).unwrap();
        optimize(&mut f, &PassConfig::default());
        f.static_instr_count()
    }

    #[test]
    fn golden_instr_count_potrf8() {
        assert_eq!(optimized_count(&slingen::apps::potrf(8)), GOLDEN_POTRF8);
    }

    #[test]
    fn golden_instr_count_kf8() {
        assert_eq!(optimized_count(&slingen::apps::kf(8)), GOLDEN_KF8);
    }

    // 246 → 231 and 3831 → 3510 when aligned reloads of one register
    // became copies that copyprop and DCE erase, instead of identity
    // shuffles.
    const GOLDEN_POTRF8: usize = 231;
    // 3836 → 3831 when the cleanup-iteration cap was raised past 3: kf8
    // needed 5 rounds to reach its fixpoint, and the old cap silently
    // stopped one copyprop/DCE wave short.
    const GOLDEN_KF8: usize = 3510;
}

// ---------------------------------------------------------------------
// Cross-target equivalence: for every benchmark app, every shipped
// target, and every ν the target supports, the target-specialized
// Stage-3 pipeline must preserve VM semantics. Non-FMA targets run the
// same passes as before and must stay bit-identical; the FMA target runs
// the contraction pass, whose fused ops round once instead of twice, so
// it is compared against the two-op reference under a tight relative
// tolerance (each contraction perturbs by <= 1 ULP).
// ---------------------------------------------------------------------

mod target_equivalence {
    use slingen_cir::passes::{optimize, PassConfig};
    use slingen_cir::{BufId, Function, Target};
    use slingen_lgen::{lower_program, BufferMap, LowerOptions};
    use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
    use slingen_vm::{BufferSet, NullMonitor};

    /// Documented ULP caveat of the FMA path: relative tolerance for the
    /// fused-vs-two-op comparison (1-ULP perturbations compounded
    /// through a small factorization stay far inside this bound).
    const FMA_RELATIVE_TOLERANCE: f64 = 1e-9;

    fn run(
        program: &slingen_ir::Program,
        f: &Function,
        nu: usize,
        seed: u64,
    ) -> Vec<(BufId, Vec<f64>)> {
        let mut fb = slingen_cir::FunctionBuilder::new("probe", nu);
        let map = BufferMap::build(program, &mut fb);
        let mut bufs = BufferSet::for_function(f);
        for (op, data) in slingen::workload::inputs(program, seed) {
            bufs.set(map.buf(op), &data);
        }
        slingen_vm::execute(f, &mut bufs, &mut NullMonitor).expect("vm execution");
        f.params()
            .filter(|(_, d)| d.kind.live_out())
            .map(|(id, _)| (id, bufs.get(id).to_vec()))
            .collect()
    }

    fn check_app_on_targets(program: slingen_ir::Program) {
        let seed = 0x7A96;
        for target in Target::ALL {
            for &nu in target.widths() {
                let mut db = AlgorithmDb::new();
                let basic =
                    synthesize_program(&program, Policy::Lazy, nu, &mut db).expect("synthesis");
                let opts = LowerOptions { nu, loop_threshold: 64 };
                let f0 = lower_program(&program, &basic, program.name(), &opts).expect("lowering");
                let mut fopt = f0.clone();
                optimize(&mut fopt, &PassConfig::default().for_target(target));
                let baseline = run(&program, &f0, nu, seed);
                let optimized = run(&program, &fopt, nu, seed);
                assert_eq!(baseline.len(), optimized.len());
                for ((id, want), (id2, got)) in baseline.iter().zip(&optimized) {
                    assert_eq!(id, id2);
                    for (i, (w, g)) in want.iter().zip(got).enumerate() {
                        if target.has_fma() {
                            let tol = FMA_RELATIVE_TOLERANCE * w.abs().max(1.0);
                            assert!(
                                (w - g).abs() <= tol,
                                "{} {target} nu={nu}: buffer {id} element {i}: {w:?} vs {g:?}",
                                program.name(),
                            );
                        } else {
                            assert!(
                                w.to_bits() == g.to_bits(),
                                "{} {target} nu={nu}: buffer {id} element {i}: {w:?} vs {g:?} \
                                 (non-FMA targets must stay bit-identical)",
                                program.name(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn potrf_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::potrf(8));
    }

    #[test]
    fn trsyl_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::trsyl(8));
    }

    #[test]
    fn trlya_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::trlya(8));
    }

    #[test]
    fn trtri_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::trtri(8));
    }

    #[test]
    fn kf_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::kf(4));
    }

    #[test]
    fn gpr_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::gpr(4));
    }

    #[test]
    fn l1a_equivalent_on_all_targets() {
        check_app_on_targets(slingen::apps::l1a(4));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimize_preserves_semantics(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let f0 = build(&ops);
        let baseline = run(&f0);
        for config in [PassConfig::default(), PassConfig::minimal(), PassConfig {
            load_store_analysis: true,
            scalar_replacement: false,
            cse: false,
            iterations: 1,
            unroll_budget: 1 << 12,
            ..PassConfig::default()
        }] {
            let mut f = f0.clone();
            optimize(&mut f, &config);
            let got = run(&f);
            prop_assert_eq!(&got.0, &baseline.0, "buffer x differs under {:?}", config);
            prop_assert_eq!(&got.1, &baseline.1, "buffer y differs under {:?}", config);
        }
    }
}
