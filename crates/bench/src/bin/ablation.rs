//! Ablation studies for the design choices called out in DESIGN.md §6:
//!
//! * vector ISA width ν ∈ {1, 2, 4} (scalar / SSE2-like / AVX);
//! * the domain-specific load/store analysis (paper Fig. 12) on/off;
//! * scalar replacement on/off;
//! * the Stage-1a algorithm database on/off (generation-time effect);
//! * algorithmic variants (lazy vs eager) per kernel.
//!
//! Usage: `ablation [--full]`

use slingen::apps::{self, nominal_flops};
use slingen::{generate, generate_with_spec, Options, VariantSpec};
use slingen_synth::Policy;
use std::time::Instant;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let sizes: Vec<usize> = if full { vec![8, 16, 32, 64] } else { vec![8, 16, 32] };

    println!("== ablation: vector width nu (potrf) ==");
    for &n in &sizes {
        let p = apps::potrf(n);
        let fl = nominal_flops("potrf", n, 0);
        print!("n={n:<4}");
        for nu in [1usize, 2, 4] {
            let opts = Options { nu, ..Options::default() };
            let g = generate(&p, &opts).unwrap();
            print!("  nu={nu}: {:7.0} cyc ({:4.2} f/c)", g.report.cycles, fl / g.report.cycles);
        }
        println!();
    }

    println!("\n== ablation: load/store analysis (Fig. 12) ==");
    for kernel in ["potrf", "trsyl", "trtri"] {
        for &n in &sizes {
            let p = slingen_bench::program_for(kernel, n);
            let fl = nominal_flops(kernel, n, 0);
            let mut opts = Options::default();
            let with = generate(&p, &opts).unwrap();
            opts.passes.load_store_analysis = false;
            let without = generate(&p, &opts).unwrap();
            println!(
                "{kernel:<6} n={n:<4} with: {:7.0} cyc ({:4.2} f/c)   without: {:7.0} cyc ({:4.2} f/c)   blends+shuffles {} -> {}",
                with.report.cycles,
                fl / with.report.cycles,
                without.report.cycles,
                fl / without.report.cycles,
                without.report.count(slingen_cir::InstrClass::Blend)
                    + without.report.count(slingen_cir::InstrClass::Shuffle),
                with.report.count(slingen_cir::InstrClass::Blend)
                    + with.report.count(slingen_cir::InstrClass::Shuffle),
            );
        }
    }

    println!("\n== ablation: scalar replacement ==");
    for &n in &sizes {
        let p = apps::potrf(n);
        let fl = nominal_flops("potrf", n, 0);
        let mut opts = Options::default();
        let with = generate(&p, &opts).unwrap();
        opts.passes.scalar_replacement = false;
        opts.passes.load_store_analysis = false;
        opts.passes.cse = false;
        let without = generate(&p, &opts).unwrap();
        println!(
            "potrf n={n:<4} full passes: {:7.0} cyc ({:4.2} f/c)   minimal: {:7.0} cyc ({:4.2} f/c)",
            with.report.cycles,
            fl / with.report.cycles,
            without.report.cycles,
            fl / without.report.cycles
        );
    }

    println!("\n== ablation: Stage-1a algorithm database (generation time) ==");
    for &n in &sizes {
        let p = apps::potrf(n);
        let t0 = Instant::now();
        let mut db = slingen_synth::AlgorithmDb::new();
        let _ = slingen_synth::synthesize_program(&p, Policy::Lazy, 4, &mut db).unwrap();
        let with_db = t0.elapsed();
        let t1 = Instant::now();
        let mut db_off = slingen_synth::AlgorithmDb::new();
        db_off.set_enabled(false);
        let _ = slingen_synth::synthesize_program(&p, Policy::Lazy, 4, &mut db_off).unwrap();
        let without_db = t1.elapsed();
        println!(
            "potrf n={n:<4} with DB: {:>8.1?} ({} hits)   without: {:>8.1?}",
            with_db,
            db.hits(),
            without_db
        );
    }

    println!("\n== ablation: algorithmic variants ==");
    for kernel in ["potrf", "trsyl", "trlya", "trtri"] {
        for &n in &sizes {
            let p = slingen_bench::program_for(kernel, n);
            let fl = nominal_flops(kernel, n, 0);
            print!("{kernel:<6} n={n:<4}");
            for policy in Policy::ALL {
                let opts = Options::default();
                let spec = VariantSpec { policy, nu: opts.nu };
                let g = generate_with_spec(&p, spec, &opts).unwrap();
                print!("  {policy}: {:4.2} f/c", fl / g.report.cycles);
            }
            println!();
        }
    }
}
