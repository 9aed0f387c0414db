//! Cross-crate integration: the full SLinGen pipeline on every benchmark,
//! validated against the BLAS/LAPACK substrate, across widths and sizes.

use slingen::{apps, generate_with_spec, Options, VariantSpec};
use slingen_blas::{testgen, Uplo};
use slingen_ir::OpId;
use slingen_lgen::BufferMap;
use slingen_synth::Policy;
use slingen_vm::{BufferSet, NullMonitor};

/// Run generated code for `program` on given inputs; return all buffers.
fn execute(
    program: &slingen_ir::Program,
    nu: usize,
    policy: Policy,
    inputs: &[(OpId, Vec<f64>)],
) -> Vec<Vec<f64>> {
    let spec = VariantSpec { policy, nu };
    let g = generate_with_spec(program, spec, &Options::default()).expect("generate");
    let mut fb = slingen_cir::FunctionBuilder::new("probe", nu);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(&g.function);
    for (op, data) in inputs {
        bufs.set(map.buf(*op), data);
    }
    slingen_vm::execute(&g.function, &mut bufs, &mut NullMonitor).expect("vm");
    (0..program.operands().len()).map(|i| bufs.get(map.buf(OpId(i))).to_vec()).collect()
}

#[test]
fn potrf_matches_lapack_across_widths_and_sizes() {
    for &n in &[4usize, 9, 16, 24] {
        for &nu in &[1usize, 2, 4] {
            for policy in Policy::ALL {
                let p = apps::potrf(n);
                let s = p.find("S").unwrap();
                let u = p.find("U").unwrap();
                let spd = testgen::spd(n, 1000 + n as u64);
                let outs = execute(&p, nu, policy, &[(s, spd.as_slice().to_vec())]);
                let mut expect = spd.as_slice().to_vec();
                slingen_blas::dpotrf(Uplo::Upper, n, &mut expect, n);
                for i in 0..n {
                    for j in i..n {
                        assert!(
                            (outs[u.0][i * n + j] - expect[i * n + j]).abs() < 1e-9,
                            "potrf n={n} nu={nu} {policy} ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn trsyl_matches_reference() {
    for &n in &[4usize, 12, 20] {
        let p = apps::trsyl(n);
        let (l, u, c, x) = (
            p.find("L").unwrap(),
            p.find("U").unwrap(),
            p.find("C").unwrap(),
            p.find("X").unwrap(),
        );
        let lt = testgen::well_conditioned_triangular(n, Uplo::Lower, 2000);
        let ut = testgen::well_conditioned_triangular(n, Uplo::Upper, 2001);
        let rhs = testgen::general(n, n, 2002);
        let outs = execute(
            &p,
            4,
            Policy::Eager,
            &[
                (l, lt.as_slice().to_vec()),
                (u, ut.as_slice().to_vec()),
                (c, rhs.as_slice().to_vec()),
            ],
        );
        let mut expect = rhs.as_slice().to_vec();
        slingen_blas::dtrsyl(n, n, lt.as_slice(), n, ut.as_slice(), n, &mut expect, n);
        let diff = outs[x.0].iter().zip(&expect).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(diff < 1e-9, "trsyl n={n}: {diff}");
    }
}

#[test]
fn kalman_filter_matches_blas_reference() {
    // a fully independent reference built from the BLAS substrate
    let n = 8;
    let p = apps::kf(n);
    let inputs = slingen::workload::inputs(&p, 4242);
    let outs = execute(&p, 4, Policy::Lazy, &inputs);
    let get = |name: &str| -> Vec<f64> {
        let op = p.find(name).unwrap();
        inputs
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, d)| d.clone())
            .unwrap_or_else(|| outs[op.0].clone())
    };
    let (f, bb, q, h, r, pm) = (get("F"), get("B"), get("Q"), get("H"), get("R"), get("P"));
    let (u_in, x, z) = (get("u"), get("x"), get("z"));
    use slingen_blas::{dgemm, Trans};
    let mm = |a: &[f64], bt: Trans, b: &[f64], m: usize, nn: usize, k: usize| -> Vec<f64> {
        let mut c = vec![0.0; m * nn];
        dgemm(
            Trans::No,
            bt,
            m,
            nn,
            k,
            1.0,
            a,
            k,
            b,
            if bt == Trans::No { nn } else { k },
            0.0,
            &mut c,
            nn,
        );
        c
    };
    // y = F x + B u
    let mut y = vec![0.0; n];
    slingen_blas::dgemv(Trans::No, n, n, 1.0, &f, n, &x, 0.0, &mut y);
    let mut bu = vec![0.0; n];
    slingen_blas::dgemv(Trans::No, n, n, 1.0, &bb, n, &u_in, 0.0, &mut bu);
    for i in 0..n {
        y[i] += bu[i];
    }
    // Y = F P F' + Q
    let fp = mm(&f, Trans::No, &pm, n, n, n);
    let mut ymat = mm(&fp, Trans::Yes, &f, n, n, n);
    for i in 0..n * n {
        ymat[i] += q[i];
    }
    // v0 = z - H y
    let mut v0 = z.clone();
    let mut hy = vec![0.0; n];
    slingen_blas::dgemv(Trans::No, n, n, 1.0, &h, n, &y, 0.0, &mut hy);
    for i in 0..n {
        v0[i] -= hy[i];
    }
    // M1 = H Y ; M2 = Y H' ; M3 = M1 H' + R
    let m1 = mm(&h, Trans::No, &ymat, n, n, n);
    let m2 = mm(&ymat, Trans::Yes, &h, n, n, n);
    let mut m3 = mm(&m1, Trans::Yes, &h, n, n, n);
    for i in 0..n * n {
        m3[i] += r[i];
    }
    // U'U = M3 ; solves
    let mut uu = m3.clone();
    slingen_blas::dpotrf(Uplo::Upper, n, &mut uu, n);
    let mut v1 = v0.clone();
    slingen_blas::dtrsv(Uplo::Upper, Trans::Yes, slingen_blas::Diag::NonUnit, n, &uu, n, &mut v1);
    let mut v2 = v1.clone();
    slingen_blas::dtrsv(Uplo::Upper, Trans::No, slingen_blas::Diag::NonUnit, n, &uu, n, &mut v2);
    let mut m4 = m1.clone();
    slingen_blas::dtrsm(
        slingen_blas::Side::Left,
        Uplo::Upper,
        Trans::Yes,
        slingen_blas::Diag::NonUnit,
        n,
        n,
        1.0,
        &uu,
        n,
        &mut m4,
        n,
    );
    let mut m5 = m4.clone();
    slingen_blas::dtrsm(
        slingen_blas::Side::Left,
        Uplo::Upper,
        Trans::No,
        slingen_blas::Diag::NonUnit,
        n,
        n,
        1.0,
        &uu,
        n,
        &mut m5,
        n,
    );
    // x_out = y + M2 v2 ; P_out = Y - M2 M5
    let mut x_out = y.clone();
    let mut m2v2 = vec![0.0; n];
    slingen_blas::dgemv(Trans::No, n, n, 1.0, &m2, n, &v2, 0.0, &mut m2v2);
    for i in 0..n {
        x_out[i] += m2v2[i];
    }
    let m2m5 = mm(&m2, Trans::No, &m5, n, n, n);
    let mut p_out = ymat.clone();
    for i in 0..n * n {
        p_out[i] -= m2m5[i];
    }

    let got_x = &outs[p.find("x_out").unwrap().0];
    let got_p = &outs[p.find("P_out").unwrap().0];
    for i in 0..n {
        assert!((got_x[i] - x_out[i]).abs() < 1e-8, "x_out[{i}]: {} vs {}", got_x[i], x_out[i]);
    }
    for i in 0..n * n {
        assert!((got_p[i] - p_out[i]).abs() < 1e-8, "P_out[{i}]: {} vs {}", got_p[i], p_out[i]);
    }
}

#[test]
fn generated_c_is_emitted_for_all_benchmarks() {
    for (name, p) in [
        ("potrf", apps::potrf(8)),
        ("trsyl", apps::trsyl(6)),
        ("kf", apps::kf(4)),
        ("gpr", apps::gpr(4)),
        ("l1a", apps::l1a(8)),
    ] {
        let g = slingen::generate(&p, &Options::default()).unwrap();
        assert!(g.c_code.contains(&format!("void {name}")), "{name}");
        assert!(g.c_code.contains("restrict"), "{name}");
    }
}
