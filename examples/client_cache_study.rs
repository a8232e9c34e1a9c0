//! The full §2 client-cache study: regenerates Figures 2–6 and Table 2 at
//! reduced scale and prints each artifact.
//!
//! ```bash
//! cargo run --release --example client_cache_study
//! ```

use nvfs::experiments::{env::Env, fig2, fig3, fig4, fig5, fig6, tab2};
use nvfs::report::render_plot;

fn main() {
    println!("Generating the synthetic Sprite trace set (small scale)…\n");
    let env = Env::small();

    let f2 = fig2::run(&env);
    println!("{}", f2.figure.render());
    println!("Fraction of written bytes dying within 30 s / 30 min:");
    for ((n, s30), (_, m30)) in f2.die_within_30s.iter().zip(&f2.die_within_30m) {
        println!("  Trace {n}: {:>5.1}% / {:>5.1}%", 100.0 * s30, 100.0 * m30);
    }
    println!();

    let t2 = tab2::run(&env);
    println!("{}", t2.table.render());
    println!(
        "Absorbed: {:.1}% of all bytes ({:.1}% excluding traces 3 and 4)\n",
        100.0 * t2.all.absorbed_fraction(),
        100.0 * t2.typical.absorbed_fraction(),
    );

    let f3 = fig3::run(&env);
    println!("{}", f3.figure.render());
    println!("{}", render_plot(&f3.figure, true));

    let f4 = fig4::run(&env);
    println!("{}", f4.figure.render());
    if let (Some(lru), Some(omni)) = (f4.traffic("lru", 1.0), f4.traffic("omniscient", 1.0)) {
        println!(
            "At 1 MB of NVRAM the omniscient policy beats LRU by {:.0}% (paper: 10-15%).\n",
            100.0 * (lru - omni) / lru,
        );
    }

    let f5 = fig5::run(&env);
    println!("{}", f5.figure.render());
    println!("{}", render_plot(&f5.figure, false));

    let f6 = fig6::run(&env);
    println!("{}", f6.figure.render());
    println!("§2.7 cost-effectiveness verdicts (16 MB volatile base):");
    for v in &f6.verdicts_16mb {
        let dram = v
            .equivalent_dram_mb
            .map_or("unreachable by DRAM".to_string(), |mb| {
                format!("{mb:.1} MB DRAM")
            });
        println!(
            "  +{:.1} MB NVRAM (${:.0}) ≙ {} → {}",
            v.nvram_mb,
            v.nvram_dollars,
            dram,
            if v.nvram_wins {
                "NVRAM wins"
            } else {
                "DRAM wins"
            },
        );
    }
}
