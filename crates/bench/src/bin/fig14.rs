//! Regenerates the paper's Fig. 14: HLAC benchmarks (potrf, trsyl, trlya,
//! trtri) — SLinGen vs Eigen, icc and clang/Polly on the left; SLinGen's
//! algorithmic variants on the right. Performance in flops/cycle vs n,
//! double precision. Every row is *modeled* (VM plus machine model); the
//! paper's library competitors have no row because none of them is
//! available to time.
//!
//! Usage: `fig14 [potrf|trsyl|trlya|trtri|all] [--full]`

use slingen::apps::nominal_flops;
use slingen_baselines::Flavor;
use slingen_bench::*;
use slingen_synth::Policy;

fn run_kernel(kernel: &str, full: bool) {
    println!("== Fig. 14 ({kernel}) — modeled performance [f/c] vs n, peak 8 f/c ==");
    println!("-- left plot (modeled): SLinGen vs templates and compilers --");
    for n in hlac_sizes(full) {
        let p = program_for(kernel, n);
        let fl = nominal_flops(kernel, n, 0);
        let mut row = vec![measure_slingen(&p, n, fl)];
        for f in [Flavor::Eigen, Flavor::Icc, Flavor::ClangPolly] {
            row.push(measure_baseline(&p, f, n, fl));
        }
        println!("{}", format_row(&row));
    }
    println!("-- right plot (modeled): SLinGen's algorithmic variants --");
    for n in hlac_sizes(full) {
        let p = program_for(kernel, n);
        let fl = nominal_flops(kernel, n, 0);
        let row: Vec<Measurement> =
            Policy::ALL.iter().map(|&policy| measure_slingen_variant(&p, policy, n, fl)).collect();
        println!("{}", format_row(&row));
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".to_string());
    let kernels: Vec<&str> = match which.as_str() {
        "all" => vec!["potrf", "trsyl", "trlya", "trtri"],
        k => vec![match k {
            "potrf" | "trsyl" | "trlya" | "trtri" => k,
            other => panic!("unknown kernel `{other}`"),
        }],
    };
    for k in kernels {
        run_kernel(k, full);
    }
}
