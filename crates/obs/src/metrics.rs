//! The always-on metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metrics are identified by `&'static str` names (dotted, lowercase:
//! `core.server_write_bytes`, `lfs.segments_written`). Recording writes to
//! the calling thread's shard (no global lock on the hot path); snapshots
//! merge shards in submission order — see [`crate::sink`] — so a snapshot
//! is byte-identical at any `--jobs` count.
//!
//! Merge semantics per kind:
//!
//! * **counters** — summed (order-independent);
//! * **gauges** — last write in submission order wins;
//! * **histograms** — per-bucket sums. Buckets are powers of two: bucket
//!   `i` counts values of bit-length `i` (zero lands in bucket 0), so two
//!   runs can disagree on a bucket count only if they recorded different
//!   values.
//!
//! Wall-clock time must never be recorded here: it would break the
//! jobs-invariance contract. Timings belong to [`crate::timing`], which
//! keeps them in the manifest's volatile `meta` section.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sink::{self, HISTO_BUCKETS};

/// Adds `n` to the counter `name`.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if n == 0 {
        return;
    }
    sink::with_local(|l| *l.counters.entry(name).or_insert(0) += n);
}

/// Sets the gauge `name` to `v` (last write in submission order wins).
#[inline]
pub fn gauge_set(name: &'static str, v: u64) {
    sink::with_local(|l| l.gauges.push((name, v)));
}

/// Records `v` into the power-of-two histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, v: u64) {
    sink::with_local(|l| {
        l.histos
            .entry(name)
            .or_insert_with(|| Box::new([0; HISTO_BUCKETS]))[bucket_of(v)] += 1;
    });
}

/// Records every value of `values` into the power-of-two histogram
/// `name`, as many [`histogram_record`] calls would, but with one registry
/// lookup and one add per bucket: the form for a layer that counts in
/// plain fields and publishes once, when its run ends. No values record
/// nothing.
pub fn histogram_record_all(name: &'static str, values: impl IntoIterator<Item = u64>) {
    let mut counts = [0u64; HISTO_BUCKETS];
    for v in values {
        counts[bucket_of(v)] += 1;
    }
    if counts.iter().all(|&c| c == 0) {
        return;
    }
    sink::with_local(|l| {
        let buckets = l
            .histos
            .entry(name)
            .or_insert_with(|| Box::new([0; HISTO_BUCKETS]));
        for (b, c) in buckets.iter_mut().zip(counts) {
            *b += c;
        }
    });
}

/// The histogram bucket of `v`: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A merged, deterministic view of every metric recorded so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Snapshot {
    /// Counter totals by name.
    counters: BTreeMap<String, u64>,
    /// Final gauge values by name.
    gauges: BTreeMap<String, u64>,
    /// Histograms by name: `(bucket_upper_bound, count)` for each
    /// non-empty bucket, in bucket order.
    histos: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Snapshot {
    /// Merges all flushed shards (plus the calling thread's buffer) in
    /// submission order.
    pub(crate) fn take() -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in sink::merged_shards() {
            for (name, n) in &shard.counters {
                *snap.counters.entry(name.to_string()).or_insert(0) += n;
            }
            for (name, v) in &shard.gauges {
                snap.gauges.insert(name.to_string(), *v);
            }
            for (name, buckets) in &shard.histos {
                let entry = snap.histos.entry(name.to_string()).or_default();
                for (i, &count) in buckets.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let bound = bucket_bound(i);
                    match entry.iter_mut().find(|(b, _)| *b == bound) {
                        Some((_, c)) => *c += count,
                        None => entry.push((bound, count)),
                    }
                }
                entry.sort_by_key(|&(b, _)| b);
            }
        }
        snap
    }

    /// Renders the snapshot as a canonical JSON object (sorted names,
    /// fixed key order) — the form embedded in run manifests and compared
    /// byte-for-byte by the jobs-invariance tests.
    pub(crate) fn render_json(&self, indent: &str) -> String {
        let mut out = String::new();
        let pad = indent;
        out.push_str("{\n");
        let _ = write!(out, "{pad}  \"counters\": {{");
        render_map(&mut out, pad, &self.counters, |v| v.to_string());
        let _ = write!(out, "}},\n{pad}  \"gauges\": {{");
        render_map(&mut out, pad, &self.gauges, |v| v.to_string());
        let _ = write!(out, "}},\n{pad}  \"histograms\": {{");
        render_map(&mut out, pad, &self.histos, |buckets| {
            let cells: Vec<String> = buckets.iter().map(|(b, c)| format!("[{b}, {c}]")).collect();
            format!("[{}]", cells.join(", "))
        });
        let _ = write!(out, "}}\n{pad}}}");
        out
    }
}

fn render_map<V>(
    out: &mut String,
    pad: &str,
    map: &BTreeMap<String, V>,
    mut render: impl FnMut(&V) -> String,
) {
    let mut first = true;
    for (name, v) in map {
        let sep = if first { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{pad}    \"{}\": {}",
            crate::json::escape(name),
            render(v)
        );
        first = false;
    }
    if !map.is_empty() {
        let _ = write!(out, "\n{pad}  ");
    }
}

/// Inclusive upper bound of histogram bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{reset, task_frame, test_lock};

    #[test]
    fn counters_sum_and_gauges_take_last_in_submission_order() {
        let _g = test_lock();
        reset();
        counter_add("m.test.c", 2);
        task_frame(&[], 0, || {
            counter_add("m.test.c", 3);
            gauge_set("m.test.g", 10);
        });
        task_frame(&[], 1, || gauge_set("m.test.g", 20));
        let snap = Snapshot::take();
        assert_eq!(snap.counters["m.test.c"], 5);
        assert_eq!(snap.gauges["m.test.g"], 20, "task 1 submitted after task 0");
        reset();
    }

    #[test]
    fn zero_counter_add_records_nothing() {
        let _g = test_lock();
        reset();
        counter_add("m.test.zero", 0);
        assert!(Snapshot::take().counters.is_empty());
        reset();
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _g = test_lock();
        reset();
        for v in [0, 1, 2, 3, 4, 1000, 1024] {
            histogram_record("m.test.h", v);
        }
        let snap = Snapshot::take();
        let h = &snap.histos["m.test.h"];
        // 0 -> [0], 1 -> [1], 2,3 -> [3], 4 -> [7], 1000 -> [1023], 1024 -> [2047]
        assert_eq!(
            h,
            &vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1), (2047, 1)]
        );
        reset();
    }

    #[test]
    fn bulk_histogram_matches_one_record_per_value() {
        let _g = test_lock();
        reset();
        let values = [0, 1, 2, 3, 4, 1000, 1024, u64::MAX, 3];
        for v in values {
            histogram_record("m.test.one", v);
        }
        histogram_record_all("m.test.bulk", values);
        histogram_record_all("m.test.none", []);
        let snap = Snapshot::take();
        assert_eq!(snap.histos["m.test.one"], snap.histos["m.test.bulk"]);
        assert!(!snap.histos.contains_key("m.test.none"));
        reset();
    }

    #[test]
    fn snapshot_render_is_stable() {
        let _g = test_lock();
        reset();
        counter_add("m.test.b", 1);
        counter_add("m.test.a", 1);
        let a = Snapshot::take().render_json("");
        let b = Snapshot::take().render_json("");
        assert_eq!(a, b);
        let ai = a.find("m.test.a").unwrap();
        let bi = a.find("m.test.b").unwrap();
        assert!(ai < bi, "names render sorted");
        reset();
    }
}
