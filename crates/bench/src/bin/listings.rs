//! Qualitative artifacts of the paper's running example: the LA program
//! (Fig. 5), the synthesized basic program (the analog of Figs. 7–9),
//! and the final generated C (the paper's output format).

use slingen::{apps, Options};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};

fn main() {
    let n = 8;
    let program = apps::potrf(n);
    println!("== LA program (paper Fig. 5 fragment, n = {n}) ==\n{program}");

    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(&program, Policy::Lazy, 4, &mut db).unwrap();
    println!("== Stage 1: synthesized basic program (Figs. 7-9 analog) ==");
    println!("{}", basic.render(&program));
    println!("(algorithm DB: {} entries, {} hits, {} misses)\n", db.len(), db.hits(), db.misses());

    let g = slingen::generate(&program, &Options::default()).unwrap();
    println!("== Stage 3 output: generated C ({} variant) ==", g.spec.policy);
    println!("{}", g.c_code);
    println!("== modeled performance ==\n{}", g.report);
}
