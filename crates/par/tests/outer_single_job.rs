//! An outer `par_map` with one job leases no worker permit, so the maps
//! nested inside it get the whole pool. The permit pool and `set_jobs`
//! are process-global, so this file holds one test.

use std::collections::HashSet;
use std::time::Duration;

#[test]
fn one_job_outer_map_leaves_the_pool_to_nested_maps() {
    nvfs_par::set_jobs(2);
    let per_part = nvfs_par::par_map(vec![0u32, 1], 1, |_| {
        nvfs_par::par_map((0..8u32).collect(), nvfs_par::jobs(), |_| {
            std::thread::sleep(Duration::from_millis(5));
            std::thread::current().id()
        })
    });
    for threads in per_part {
        let distinct: HashSet<_> = threads.into_iter().collect();
        assert!(distinct.len() > 1, "nested items ran on one thread");
    }
}
