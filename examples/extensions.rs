//! The extensions beyond the paper's main figures: the §2.6 hybrid model,
//! Sprite's dirty-block preference, the block-by-block consistency
//! protocol of [21], and the composed client→server pipeline.
//!
//! ```bash
//! cargo run --release --example extensions
//! ```

use nvfs::experiments::{ablations, consistency_protocol, env::Env, pipeline};

fn main() {
    println!("Generating workloads (small scale)…\n");
    let env = Env::small();

    let hybrid = ablations::hybrid(&env);
    println!("{}", hybrid.figure.render());
    println!(
        "The hybrid model wins at small NVRAM sizes because the whole volatile\n\
         cache absorbs write bursts — but {:.1} MB of written data sat exposed\n\
         to a crash for the full 30-second window (§2.6's caveat).\n",
        hybrid.exposed_bytes_1mb as f64 / (1 << 20) as f64,
    );

    let pref = ablations::dirty_preference(&env);
    println!("{}", pref.render());
    println!(
        "Sprite's real replacement policy spares dirty blocks, cutting\n\
         replacement write-backs sharply once cache residency drops below the\n\
         30-second window — at multi-megabyte sizes the two policies behave\n\
         identically, which is why the paper could simplify it away (§2.1).\n"
    );

    let cons = consistency_protocol::run(&env);
    println!("{}", cons.table.render());
    let (whole, block) = cons.callback_totals();
    println!(
        "Block-by-block recall avoids {:.1}% of callback traffic — the paper's\n\
         suggested route past the 10-17% consistency floor (§2.3, [21]).\n",
        100.0 * (1.0 - block as f64 / whole.max(1) as f64),
    );

    let pipe = pipeline::run(&env);
    println!("{}", pipe.table.render());
    println!(
        "Client NVRAM absorbs application fsyncs before they reach the server,\n\
         removing the server's fsync-forced partial segments entirely — the two\n\
         halves of the paper compose."
    );
}
