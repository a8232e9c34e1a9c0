//! Reproducibility: the whole pipeline — workload synthesis, client cache
//! simulation, LFS simulation, experiments — is deterministic for a given
//! seed, and distinct seeds give distinct workloads.

use nvfs::core::{ClusterSim, PolicyKind, SimConfig};
use nvfs::lfs::fs::{run_filesystem, LfsConfig};
use nvfs::trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};

#[test]
fn trace_generation_is_bit_identical() {
    let a = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let b = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    for (ta, tb) in a.traces().iter().zip(b.traces()) {
        assert_eq!(ta.events(), tb.events());
        assert_eq!(ta.ops(), tb.ops());
    }
}

#[test]
fn different_seeds_differ() {
    let a = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let mut cfg = TraceSetConfig::tiny();
    cfg.seed += 1;
    let b = SpriteTraceSet::generate(&cfg);
    assert_ne!(a.trace(0).events(), b.trace(0).events());
}

#[test]
fn simulations_are_deterministic_across_runs() {
    let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let ops = set.trace(6).ops();
    for cfg in [
        SimConfig::volatile(2 << 20),
        SimConfig::write_aside(2 << 20, 512 << 10),
        SimConfig::unified(2 << 20, 512 << 10),
        SimConfig::hybrid(2 << 20, 512 << 10),
        SimConfig::unified(2 << 20, 512 << 10).with_policy(PolicyKind::Random { seed: 3 }),
        SimConfig::unified(2 << 20, 512 << 10).with_policy(PolicyKind::Omniscient),
    ] {
        let a = ClusterSim::new(cfg.clone()).session(ops).run().stats;
        let b = ClusterSim::new(cfg).session(ops).run().stats;
        assert_eq!(a, b);
    }
}

#[test]
fn detailed_write_logs_are_deterministic() {
    let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let ops = set.trace(0).ops();
    let cfg = SimConfig::volatile(2 << 20);
    let a = ClusterSim::new(cfg.clone()).session(ops).writes().run();
    let b = ClusterSim::new(cfg).session(ops).writes().run();
    assert_eq!(a, b);
}

#[test]
fn lfs_runs_are_deterministic() {
    let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
    for cfg in [LfsConfig::direct(), LfsConfig::with_fsync_buffer(512 << 10)] {
        let a = run_filesystem(&ws[0], &cfg);
        let b = run_filesystem(&ws[0], &cfg);
        assert_eq!(a.records, b.records);
        assert_eq!(a.fsync_ops, b.fsync_ops);
    }
}
