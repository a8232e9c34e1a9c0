//! Scratch calibration harness: prints lifetime fates and model sweeps for
//! the synthetic trace set so the workload mix can be tuned against the
//! paper's published shapes. Not part of the reproduction API.

use nvfs_core::lifetime::{ByteFate, LifetimeLog};
use nvfs_core::{ClusterSim, PolicyKind, SimConfig};
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs_types::SimDuration;

fn main() {
    let cfg = TraceSetConfig::small();
    let set = SpriteTraceSet::generate(&cfg);
    let mb = 1024.0 * 1024.0;

    println!("== per-trace volumes ==");
    for t in set.traces() {
        println!(
            "trace {}: writes {:>8.1} MB  reads {:>8.1} MB  ops {}",
            t.number(),
            t.ops().app_write_bytes() as f64 / mb,
            t.ops().app_read_bytes() as f64 / mb,
            t.ops().len()
        );
    }

    println!("\n== lifetime fates (Table 2 shape) ==");
    let mut logs = Vec::new();
    for t in set.traces() {
        let log = LifetimeLog::analyze(t.ops());
        let total = log.total_write_bytes as f64;
        let f = log.bytes_by_fate();
        let pct = |fate: ByteFate| 100.0 * *f.get(&fate).unwrap_or(&0) as f64 / total;
        println!(
            "trace {}: overw {:>5.1}% del {:>5.1}% callback {:>5.1}% migr {:>4.1}% conc {:>4.2}% remain {:>5.1}%  | die<=30s {:>5.1}% die<=30m {:>5.1}%",
            t.number(),
            pct(ByteFate::Overwritten),
            pct(ByteFate::Deleted),
            pct(ByteFate::CalledBack),
            pct(ByteFate::Migrated),
            pct(ByteFate::Concurrent),
            pct(ByteFate::Remaining),
            100.0 * log.death_fraction_within(SimDuration::from_secs(30)),
            100.0 * log.death_fraction_within(SimDuration::from_mins(30)),
        );
        logs.push(log);
    }

    println!("\n== omniscient unified sweep, trace 7 (Fig 3 shape) ==");
    let t7 = set.trace(6);
    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(t7.ops()).run().stats;
    for nv_kb in [128u64, 256, 512, 1024, 2048, 4096, 8192] {
        let cfg = SimConfig::unified(8 << 20, nv_kb << 10).with_policy(PolicyKind::Omniscient);
        let s = replay(cfg);
        println!(
            "  nvram {:>5} KB -> net write {:>5.1}%",
            nv_kb,
            s.net_write_traffic_pct()
        );
    }

    println!("\n== policies at 1MB NVRAM, trace 7 (Fig 4 shape) ==");
    for (name, p) in [
        ("lru", PolicyKind::Lru),
        ("random", PolicyKind::Random { seed: 42 }),
        ("omniscient", PolicyKind::Omniscient),
    ] {
        let s = replay(SimConfig::unified(8 << 20, 1 << 20).with_policy(p));
        println!(
            "  {:>10} -> net write {:>5.1}%",
            name,
            s.net_write_traffic_pct()
        );
    }

    println!("\n== model comparison, trace 7, 8MB base (Fig 5 shape) ==");
    for extra_mb in [0u64, 1, 2, 4, 8] {
        let vol = replay(SimConfig::volatile((8 + extra_mb) << 20));
        let uni = if extra_mb == 0 {
            None
        } else {
            Some(replay(SimConfig::unified(8 << 20, extra_mb << 20)))
        };
        let wa = if extra_mb == 0 {
            None
        } else {
            Some(replay(SimConfig::write_aside(8 << 20, extra_mb << 20)))
        };
        println!(
            "  +{} MB: volatile {:>5.1}% (hit {:.2}, sr {:.1}MB sw {:.1}MB)  unified {}  write-aside {}",
            extra_mb,
            vol.net_total_traffic_pct(),
            vol.read_hit_ratio(),
            vol.server_read_bytes as f64 / mb,
            vol.server_write_bytes as f64 / mb,
            uni.map_or("    -".into(), |s| format!("{:>5.1}%", s.net_total_traffic_pct())),
            wa.map_or("    -".into(), |s| format!("{:>5.1}%", s.net_total_traffic_pct())),
        );
    }
}
