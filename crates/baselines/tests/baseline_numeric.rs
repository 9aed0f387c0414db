//! Baselines must be *correct* competitors: every flavor's output is
//! checked against SLinGen's verified output on the same workloads.

use slingen::apps;
use slingen_baselines::{baseline_codegen, Flavor};
use slingen_ir::{OpId, Program};
use slingen_lgen::BufferMap;
use slingen_vm::{BufferSet, NullMonitor};

fn run_baseline(program: &Program, flavor: Flavor, seed: u64) -> Vec<(OpId, Vec<f64>)> {
    let code =
        baseline_codegen(program, flavor).unwrap_or_else(|e| panic!("{}: {e}", flavor.label()));
    let mut fb = slingen_cir::FunctionBuilder::new("probe", 4);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(&code.function);
    for (op, data) in slingen::workload::inputs(program, seed) {
        bufs.set(map.buf(op), &data);
    }
    slingen_vm::execute(&code.function, &mut bufs, &mut NullMonitor)
        .unwrap_or_else(|e| panic!("{}: {e}", flavor.label()));
    program
        .operands()
        .iter()
        .enumerate()
        .map(|(i, _)| (OpId(i), bufs.get(map.buf(OpId(i))).to_vec()))
        .collect()
}

fn run_slingen(program: &Program, seed: u64) -> Vec<(OpId, Vec<f64>)> {
    let g = slingen::generate(program, &slingen::Options::default()).expect("slingen");
    let mut fb = slingen_cir::FunctionBuilder::new("probe", 4);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(&g.function);
    for (op, data) in slingen::workload::inputs(program, seed) {
        bufs.set(map.buf(op), &data);
    }
    slingen_vm::execute(&g.function, &mut bufs, &mut NullMonitor).unwrap();
    program
        .operands()
        .iter()
        .enumerate()
        .map(|(i, _)| (OpId(i), bufs.get(map.buf(OpId(i))).to_vec()))
        .collect()
}

fn compare(program: &Program, a: &[(OpId, Vec<f64>)], b: &[(OpId, Vec<f64>)], what: &str) {
    for (i, decl) in program.operands().iter().enumerate() {
        if !decl.io.writable() {
            continue;
        }
        let (rows, cols) = (decl.shape.rows, decl.shape.cols);
        let (x, y) = (&a[i].1, &b[i].1);
        for r in 0..rows {
            for c in 0..cols {
                if decl.structure.is_zero_at(r, c) {
                    continue;
                }
                let d = (x[r * cols + c] - y[r * cols + c]).abs();
                assert!(
                    d < 1e-8,
                    "{what}: {}({r},{c}): {} vs {}",
                    decl.name,
                    x[r * cols + c],
                    y[r * cols + c]
                );
            }
        }
    }
}

const FLAVORS: [Flavor; 3] = [Flavor::Icc, Flavor::ClangPolly, Flavor::Eigen];

#[test]
fn all_flavors_correct_on_potrf() {
    let p = apps::potrf(12);
    let reference = run_slingen(&p, 77);
    for flavor in FLAVORS {
        let got = run_baseline(&p, flavor, 77);
        compare(&p, &got, &reference, flavor.label());
    }
}

#[test]
fn all_flavors_correct_on_trsyl() {
    let p = apps::trsyl(8);
    let reference = run_slingen(&p, 78);
    for flavor in FLAVORS {
        let got = run_baseline(&p, flavor, 78);
        compare(&p, &got, &reference, flavor.label());
    }
}

#[test]
fn all_flavors_correct_on_kf() {
    let p = apps::kf(4);
    let reference = run_slingen(&p, 79);
    for flavor in FLAVORS {
        let got = run_baseline(&p, flavor, 79);
        compare(&p, &got, &reference, flavor.label());
    }
}
