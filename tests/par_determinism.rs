//! Determinism under parallelism: every artifact the pipeline produces
//! must be byte-identical regardless of the job count.
//!
//! This is the hard invariant behind `nvfs_par::par_map` (submission-order
//! joins, per-task RNG seeds, no shared mutable state). The checks here
//! run the same workloads with jobs=1 and jobs=4 and compare rendered
//! output byte for byte.

use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::trace::serialize::render_ops;
use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};

/// Renders every per-trace op stream of a set into one string.
fn render_set(set: &SpriteTraceSet) -> String {
    set.traces().iter().map(|t| render_ops(t.ops())).collect()
}

/// The job count is process-global, so every jobs-toggling check lives in
/// this single test: integration tests in one binary share the process,
/// and interleaved `set_jobs` calls would race.
#[test]
fn artifacts_are_byte_identical_at_any_job_count() {
    // Env::small() exercises the real experiment scale (the CLI default).
    nvfs::par::set_jobs(1);
    let sequential = render_set(&SpriteTraceSet::generate(&TraceSetConfig::small()));
    nvfs::par::set_jobs(4);
    let parallel = render_set(&SpriteTraceSet::generate(&TraceSetConfig::small()));
    assert_eq!(
        sequential, parallel,
        "small trace set differs between jobs=1 and jobs=4"
    );

    // Figures, tables, and the scorecard at the tiny scale: sweeps, the
    // LFS server runs, and the sweeps nested in the scorecard's parts all
    // join in submission order.
    nvfs::par::set_jobs(1);
    let env1 = Env::tiny();
    let f2_1 = exp::fig2::run(&env1).figure.render();
    let f3_1 = exp::fig3::run(&env1).figure.render();
    let f4_1 = exp::fig4::run(&env1).figure.render();
    let f5_1 = exp::fig5::run(&env1).figure.render();
    let t3_1 = exp::tab3::run(&env1).table.render();
    let card1 = exp::scorecard::run(&env1);

    nvfs::par::set_jobs(4);
    let env4 = Env::tiny();
    assert_eq!(render_set(&env1.traces), render_set(&env4.traces));
    assert_eq!(f2_1, exp::fig2::run(&env4).figure.render(), "fig2 differs");
    assert_eq!(f3_1, exp::fig3::run(&env4).figure.render(), "fig3 differs");
    assert_eq!(f4_1, exp::fig4::run(&env4).figure.render(), "fig4 differs");
    assert_eq!(f5_1, exp::fig5::run(&env4).figure.render(), "fig5 differs");
    assert_eq!(t3_1, exp::tab3::run(&env4).table.render(), "tab3 differs");
    let card4 = exp::scorecard::run(&env4);
    assert_eq!(
        card1.table.render(),
        card4.table.render(),
        "scorecard differs"
    );
    assert_eq!(card1.passed(), card4.passed());

    nvfs::par::set_jobs(1);
}
