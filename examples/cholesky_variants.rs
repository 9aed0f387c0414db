//! Variant-space autotuning on the paper's running example (eq. 5):
//! search policy × ν for the Cholesky factorization, compare the search
//! with every pinned point, and show the Stage-1a algorithm reuse plus
//! the tuning cache.
//!
//! Run with: `cargo run --release --example cholesky_variants`

use slingen::{apps, generate_with_spec, Options, SearchSpace, VariantSpec};
use slingen_synth::Policy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for n in [8usize, 16, 32] {
        let program = apps::potrf(n);
        println!("potrf n={n}:");

        // every point of the default space, measured individually
        let opts = Options::default();
        let mut pinned: Option<(VariantSpec, f64)> = None;
        for spec in opts.search.enumerate(opts.target, opts.nu) {
            let g = generate_with_spec(&program, spec, &opts)?;
            if pinned.is_none_or(|(_, cycles)| g.report.cycles < cycles) {
                pinned = Some((spec, g.report.cycles));
            }
            println!(
                "  {:>14}: {:>9.0} cycles ({:.2} f/c nominal), DB hits/misses {}/{}",
                spec.to_string(),
                g.report.cycles,
                apps::nominal_flops("potrf", n, 0) / g.report.cycles,
                g.db_stats.0,
                g.db_stats.1
            );
        }

        // the default greedy search: both dimensions, pruned by the
        // machine model's cycle budget, byte-identical variants deduped
        let auto = slingen::generate(&program, &opts)?;
        println!(
            "  greedy winner: {} ({} variants explored, {} pruned early, {} deduped)",
            auto.spec, auto.tuning.explored, auto.tuning.pruned, auto.tuning.deduped
        );

        // the best pinned point for comparison: same cycles, more work
        let (best, cycles) = pinned.expect("the default space has points");
        println!("  best pinned point: {best} ({cycles:.0} cycles)");

        // a restricted space pins single axes (here: the historical
        // 2-policy fan-out as a 2-point space)
        let row = Options {
            search: SearchSpace::default().with_policies(Policy::ALL).with_nus([4]),
            ..Options::default()
        };
        let old = slingen::generate(&program, &row)?;
        println!(
            "  2-policy row winner: {} ({:.0} cycles vs tuned {:.0})",
            old.spec, old.report.cycles, auto.report.cycles
        );
        // guaranteed by construction: the greedy seed sweep *is* this row
        // (matching the best pinned point is asserted by the regression
        // tests in tests/tuner.rs, not by this smoke example)
        assert!(auto.report.cycles <= old.report.cycles + 1e-9);

        // repeated generation through the same Options hits the cache
        let again = slingen::generate(&program, &opts)?;
        assert!(again.tuning.cache_hit);
        let (hits, misses) = opts.cache.stats();
        println!("  tuning cache: {hits} hits / {misses} misses\n");
    }
    Ok(())
}
