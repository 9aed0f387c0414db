//! Behavioral tests of the machine model against first-principles
//! expectations: peak attainability, overhead accounting, bottleneck
//! attribution, and monotonicity properties the figures rely on.

use slingen_cir::{Affine, BinOp, BufKind, FunctionBuilder, MemRef};
use slingen_perf::{measure, Machine, Resource};
use slingen_vm::BufferSet;

/// A balanced mul+add kernel with plenty of ILP should approach the
/// machine's 8 flops/cycle peak.
#[test]
fn balanced_fp_stream_approaches_peak() {
    let mut b = FunctionBuilder::new("peak", 4);
    let o = b.buffer("o", 4, BufKind::ParamOut);
    // 64 independent chains, interleaved: enough ILP to fill both ports
    let mut regs = Vec::new();
    for i in 0..64 {
        regs.push(b.vbroadcast(1.0 + i as f64 * 1e-3));
    }
    let mut outs = Vec::new();
    for round in 0..8 {
        for i in 0..64 {
            let m = b.vbin(BinOp::Mul, regs[i], regs[(i + 1) % 64]);
            let a = b.vbin(BinOp::Add, m, regs[(i + 2) % 64]);
            if round == 7 && i < 4 {
                outs.push(a);
            }
        }
    }
    let last = outs[0];
    b.vstore_contig(last, MemRef::new(o, 0));
    let f = b.finish();
    let mut bufs = BufferSet::for_function(&f);
    let r = measure(&f, &mut bufs, None, &Machine::sandy_bridge()).unwrap();
    let fpc = r.flops_per_cycle();
    assert!(fpc > 6.0, "expected near-peak, got {fpc:.2}");
    assert!(fpc <= 8.0 + 1e-9, "cannot exceed peak, got {fpc:.2}");
}

/// Store-heavy code is bound by the single store unit.
#[test]
fn store_bound_attribution() {
    let mut b = FunctionBuilder::new("st", 4);
    let o = b.buffer("o", 512, BufKind::ParamOut);
    let v = b.vbroadcast(3.0);
    for i in 0..128 {
        b.vstore_contig(v, MemRef::new(o, (i * 4) as i64));
    }
    let f = b.finish();
    let mut bufs = BufferSet::for_function(&f);
    let r = measure(&f, &mut bufs, None, &Machine::sandy_bridge()).unwrap();
    assert_eq!(r.bottleneck(), Resource::Store);
    // 128 256-bit stores at 2 unit-slots over 1 slot/cycle >= 256 cycles
    assert!(r.cycles >= 256.0, "{}", r.cycles);
}

/// A rolled loop and its unrolled equivalent cost roughly the same
/// (branching is not modeled; address arithmetic is free) — the unroller
/// pays off only through the enabled register optimizations.
#[test]
fn rolled_and_unrolled_loops_cost_alike() {
    let build = |unrolled: bool| {
        let mut b = FunctionBuilder::new("lp", 4);
        let x = b.buffer("x", 64, BufKind::ParamInOut);
        if unrolled {
            for i in (0..64).step_by(4) {
                let v = b.vload_contig(MemRef::new(x, i as i64));
                let w = b.vbin(BinOp::Add, v, v);
                b.vstore_contig(w, MemRef::new(x, i as i64));
            }
        } else {
            let i = b.begin_for(0, 64, 4);
            let v = b.vload_contig(MemRef::new(x, Affine::var(i)));
            let w = b.vbin(BinOp::Add, v, v);
            b.vstore_contig(w, MemRef::new(x, Affine::var(i)));
            b.end_for();
        }
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        measure(&f, &mut bufs, None, &Machine::sandy_bridge()).unwrap().cycles
    };
    let (rolled, unrolled) = (build(false), build(true));
    assert!((rolled - unrolled).abs() < 1.0, "{rolled} vs {unrolled}");
}

/// Perf limits: a shuffle-free program's shuffle limit equals peak.
#[test]
fn shuffle_free_code_has_peak_shuffle_limit() {
    let mut b = FunctionBuilder::new("nf", 4);
    let x = b.buffer("x", 8, BufKind::ParamInOut);
    let v = b.vload_contig(MemRef::new(x, 0));
    let w = b.vbin(BinOp::Mul, v, v);
    b.vstore_contig(w, MemRef::new(x, 4));
    let f = b.finish();
    let mut bufs = BufferSet::for_function(&f);
    let r = measure(&f, &mut bufs, None, &Machine::sandy_bridge()).unwrap();
    assert_eq!(r.perf_limit(Resource::Shuffle), 8.0);
    assert_eq!(r.shuffle_blend_issue_rate(), 0.0);
}

/// Machine-model sensitivity: halving the divider penalty must speed up
/// division-bound code and leave flop-bound code nearly untouched — the
/// paper's point that small-size factorizations are divider-limited.
#[test]
fn divider_sensitivity_separates_kernels() {
    // division chain (Cholesky-like recurrence)
    let mut b = FunctionBuilder::new("divs", 1);
    let o = b.buffer("o", 1, BufKind::ParamOut);
    let mut acc = b.smov(256.0);
    for _ in 0..8 {
        acc = b.sbin(BinOp::Div, acc, 1.375);
    }
    b.sstore(acc, MemRef::new(o, 0));
    let divf = b.finish();

    // flop stream
    let mut b = FunctionBuilder::new("flops", 4);
    let o = b.buffer("o", 4, BufKind::ParamOut);
    let mut regs = Vec::new();
    for i in 0..16 {
        regs.push(b.vbroadcast(1.0 + i as f64));
    }
    let mut last = regs[0];
    for r in 0..8 {
        for i in 0..16 {
            last = b.vbin(BinOp::Mul, regs[i], regs[(i + r) % 16]);
        }
    }
    b.vstore_contig(last, MemRef::new(o, 0));
    let flopf = b.finish();

    let fast_div = {
        let mut m = Machine::sandy_bridge();
        m.div_scalar_cycles = 11.0;
        m.div_vector_cycles = 22.0;
        m
    };
    let measure_on = |f: &slingen_cir::Function, m: &Machine| {
        let mut bufs = BufferSet::for_function(f);
        measure(f, &mut bufs, None, m).unwrap().cycles
    };
    let div_base = measure_on(&divf, &Machine::sandy_bridge());
    let div_fast = measure_on(&divf, &fast_div);
    assert!(
        div_fast < 0.6 * div_base,
        "division-bound code must track the divider: {div_fast} vs {div_base}"
    );
    let flop_base = measure_on(&flopf, &Machine::sandy_bridge());
    let flop_fast = measure_on(&flopf, &fast_div);
    assert!(
        (flop_fast - flop_base).abs() < 1.0,
        "flop-bound code must not care: {flop_fast} vs {flop_base}"
    );
}
