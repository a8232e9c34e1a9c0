//! Quickstart: generate a synthetic Sprite day, run the three client cache
//! models over one trace, and print the traffic comparison.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use nvfs::core::{ClusterSim, SimConfig};
use nvfs::report::{Cell, Table};
use nvfs::trace::stats::TraceStats;
use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};

fn main() {
    // Deterministic, reduced-scale version of the paper's eight 24-hour
    // Sprite traces (use `TraceSetConfig::paper()` for full scale).
    let traces = SpriteTraceSet::generate(&TraceSetConfig::small());
    let trace = traces.trace(6); // the paper's "typical" Trace 7
    let stats = TraceStats::for_stream(trace.ops());
    println!(
        "Trace {}: {} ops, {:.1} MB written, {:.1} MB read, {} files, {} clients\n",
        trace.number(),
        stats.ops,
        stats.write_bytes as f64 / (1 << 20) as f64,
        stats.read_bytes as f64 / (1 << 20) as f64,
        stats.files,
        stats.clients,
    );

    // 8 MB volatile cache, plus 1 MB of NVRAM for the two NVRAM models.
    let configs = [
        ("volatile (Sprite baseline)", SimConfig::volatile(8 << 20)),
        ("write-aside", SimConfig::write_aside(8 << 20, 1 << 20)),
        ("unified", SimConfig::unified(8 << 20, 1 << 20)),
    ];

    let mut table = Table::new(
        "Client cache models over Trace 7 (8 MB volatile, +1 MB NVRAM)",
        &[
            "Model",
            "Net write traffic",
            "Net total traffic",
            "Fsync MB",
            "Remaining MB",
        ],
    );
    for (name, cfg) in configs {
        let s = ClusterSim::new(cfg).session(trace.ops()).run().stats;
        table.push_row(vec![
            Cell::from(name),
            Cell::Pct(s.net_write_traffic_pct()),
            Cell::Pct(s.net_total_traffic_pct()),
            Cell::f1(s.fsync_bytes as f64 / (1 << 20) as f64),
            Cell::f1(s.remaining_dirty_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The NVRAM models hold dirty data past Sprite's 30-second write-back,\n\
         absorbing overwrites and deletes before they ever reach the server (§2)."
    );
}
