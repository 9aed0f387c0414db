//! Regenerates the paper's Fig. 15: application benchmarks — the Kalman
//! filter (kf and kf-28), Gaussian process regression (gpr), and the
//! L1-analysis solver (l1a) vs Eigen and icc. Every row is *modeled* (VM
//! plus machine model); the paper's MKL competitor has no row because the
//! library is not available to time.
//!
//! Usage: `fig15 [kf|kf28|gpr|l1a|all] [--full]`

use slingen::apps::{self, nominal_flops};
use slingen_baselines::Flavor;
use slingen_bench::*;

fn app_row(program: &slingen_ir::Program, n: usize, fl: f64) -> String {
    let mut row = vec![measure_slingen(program, n, fl)];
    for f in [Flavor::Eigen, Flavor::Icc] {
        row.push(measure_baseline(program, f, n, fl));
    }
    format_row(&row)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".to_string());
    let all = which == "all";

    if all || which == "kf" {
        println!("== Fig. 15a (kf) — modeled performance [f/c] vs n ==");
        for n in app_sizes(full) {
            let p = apps::kf(n);
            println!("{}", app_row(&p, n, nominal_flops("kf", n, 0)));
        }
        println!();
    }
    if all || which == "kf28" {
        println!("== Fig. 15b (kf-28) — state 28, modeled performance [f/c] vs k ==");
        let ks: Vec<usize> = if full { (4..=28).step_by(4).collect() } else { vec![4, 12, 20, 28] };
        for k in ks {
            let p = apps::kf_sized(28, k);
            println!("{}", app_row(&p, k, nominal_flops("kf28", 28, k)));
        }
        println!();
    }
    if all || which == "gpr" {
        println!("== Fig. 15c (gpr) — modeled performance [f/c] vs n ==");
        for n in app_sizes(full) {
            let p = apps::gpr(n);
            println!("{}", app_row(&p, n, nominal_flops("gpr", n, 0)));
        }
        println!();
    }
    if all || which == "l1a" {
        println!("== Fig. 15d (l1a) — modeled performance [f/c] vs n ==");
        for n in app_sizes(full) {
            let p = apps::l1a(n);
            println!("{}", app_row(&p, n, nominal_flops("l1a", n, 0)));
        }
        println!();
    }
}
