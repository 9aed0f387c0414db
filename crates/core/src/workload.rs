//! Valid random workloads for a program's inputs.
//!
//! Factorizations need structurally valid inputs (SPD for Cholesky,
//! well-conditioned non-singular triangles for solvers); everything else
//! gets uniform random data, as in the paper's measurement protocol
//! ("repeated on different random inputs").

use slingen_blas::{testgen, Uplo};
use slingen_cir::{Function, FunctionBuilder};
use slingen_ir::structure::StorageHalf;
use slingen_ir::{OpId, Program, Structure};
use slingen_lgen::BufferMap;
use slingen_vm::BufferSet;

fn storage_uplo(half: StorageHalf) -> Uplo {
    match half {
        StorageHalf::Lower => Uplo::Lower,
        StorageHalf::Upper => Uplo::Upper,
    }
}

/// Generate inputs for every `In`/`InOut` operand of `program`.
pub fn inputs(program: &Program, seed: u64) -> Vec<(OpId, Vec<f64>)> {
    let mut out = Vec::new();
    for (i, decl) in program.operands().iter().enumerate() {
        if !decl.io.readable_at_entry() {
            continue;
        }
        let (r, c) = (decl.shape.rows, decl.shape.cols);
        let s = seed.wrapping_mul(31).wrapping_add(i as u64 + 1);
        let data = match decl.structure {
            Structure::Symmetric(half) if decl.properties.positive_definite => {
                // like the plain-symmetric branch, the declared stored
                // half is authoritative: mirror it onto the other side so
                // code that only reads the stored triangle agrees with
                // reference code that reads the full matrix
                let uplo = storage_uplo(half);
                testgen::symmetrize(&testgen::spd(r, s), uplo).as_slice().to_vec()
            }
            Structure::Symmetric(half) => {
                let uplo = storage_uplo(half);
                testgen::symmetrize(&testgen::general(r, r, s), uplo).as_slice().to_vec()
            }
            Structure::LowerTriangular => {
                testgen::well_conditioned_triangular(r, Uplo::Lower, s).as_slice().to_vec()
            }
            Structure::UpperTriangular => {
                testgen::well_conditioned_triangular(r, Uplo::Upper, s).as_slice().to_vec()
            }
            _ => {
                if r == 1 && c == 1 {
                    // scalars like the l1a step sizes stay in a sane range
                    vec![0.25 + testgen::vector(1, s)[0].abs() * 0.5]
                } else {
                    testgen::general(r, c, s).as_slice().to_vec()
                }
            }
        };
        out.push((OpId(i), data));
    }
    out
}

/// The inputs of [`inputs`] mapped onto `function`'s buffers: the one
/// workload that model measurement, hardware timing and the benchmark
/// harness all run, so every signal times identical data.
pub fn buffers(program: &Program, function: &Function, seed: u64) -> BufferSet {
    let map = BufferMap::build(program, &mut FunctionBuilder::new("probe", function.width));
    let mut bufs = BufferSet::for_function(function);
    for (op, data) in inputs(program, seed) {
        bufs.set(map.buf(op), &data);
    }
    bufs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn covers_all_inputs() {
        let p = apps::kf(8);
        let ins = inputs(&p, 7);
        let expected = p.operands().iter().filter(|o| o.io.readable_at_entry()).count();
        assert_eq!(ins.len(), expected);
        for (op, data) in &ins {
            let d = p.operand(*op);
            assert_eq!(data.len(), d.shape.rows * d.shape.cols);
        }
    }

    #[test]
    fn pd_inputs_are_factorizable() {
        let p = apps::potrf(8);
        let ins = inputs(&p, 3);
        let (_, s) = &ins[0];
        let mut copy = s.clone();
        // must not panic
        slingen_blas::dpotrf(Uplo::Upper, 8, &mut copy, 8);
    }

    #[test]
    fn spd_inputs_respect_the_declared_stored_half() {
        use slingen_ir::structure::StorageHalf;
        // potrf declares an UpSym PD input: the upper triangle must be
        // authoritative, i.e. the matrix equals its upper-half mirror
        let p = apps::potrf(6);
        let decl = &p.operands()[0];
        let half = match decl.structure {
            slingen_ir::Structure::Symmetric(h) => h,
            other => panic!("potrf input should be symmetric, got {other:?}"),
        };
        let ins = inputs(&p, 11);
        let (_, data) = &ins[0];
        for i in 0..6 {
            for j in 0..6 {
                let (si, sj) = match half {
                    StorageHalf::Upper => (i.min(j), i.max(j)),
                    StorageHalf::Lower => (i.max(j), i.min(j)),
                };
                assert_eq!(
                    data[i * 6 + j],
                    data[si * 6 + sj],
                    "({i},{j}) must mirror the stored half"
                );
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let p = apps::gpr(6);
        assert_eq!(inputs(&p, 5), inputs(&p, 5));
        assert_ne!(inputs(&p, 5), inputs(&p, 6));
    }
}
