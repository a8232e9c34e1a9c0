//! Byte-lifetime analysis with an infinite non-volatile cache (§2.3).
//!
//! This is the paper's second/third simulation pass: with unbounded NVRAM,
//! no byte is ever written back due to replacement, so every written byte
//! meets one of a handful of fates — it is overwritten, deleted (or
//! truncated), recalled by the consistency protocol, flushed by process
//! migration, written through because caching was disabled, or still alive
//! when the trace ends. [`LifetimeLog`] records a `(length, birth, fate,
//! fate-time)` tuple for every run of bytes, from which both Figure 2 (net
//! write traffic as a function of a fixed write-back delay) and Table 2
//! (the fate summary) are computed.

use std::collections::BTreeMap;

use nvfs_trace::op::{OpKind, OpStream};
use nvfs_types::{ByteRange, ClientId, FileId, SimDuration, SimTime};

use crate::consistency::ConsistencyServer;

/// The final fate of a run of written bytes (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ByteFate {
    /// Overwritten in the cache before ever reaching the server.
    Overwritten,
    /// Killed by a delete or truncate before reaching the server.
    Deleted,
    /// Recalled to the server by the cache consistency protocol.
    CalledBack,
    /// Flushed to the server because the writing process migrated.
    Migrated,
    /// Written straight through while caching was disabled by concurrent
    /// write-sharing.
    Concurrent,
    /// Still dirty in the (infinite) cache at the end of the trace.
    Remaining,
}

impl ByteFate {
    /// Whether bytes with this fate were absorbed by the cache (never
    /// produced server write traffic).
    const fn is_absorbed(self) -> bool {
        matches!(self, ByteFate::Overwritten | ByteFate::Deleted)
    }
}

/// One run of bytes sharing a birth time and a fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FateRecord {
    /// Number of bytes in the run.
    pub len: u64,
    /// When the bytes were written into the cache.
    pub birth: SimTime,
    /// What happened to them.
    fate: ByteFate,
    /// When the fate occurred (end of trace for `Remaining`).
    pub fate_time: SimTime,
}

impl FateRecord {
    /// Age at which the fate occurred.
    fn age(&self) -> SimDuration {
        self.fate_time - self.birth
    }
}

/// Dirty byte runs of one (client, file) pair, with per-run birth times.
#[derive(Debug, Clone, Default)]
struct TimedRanges {
    /// start → (end, birth). Runs are disjoint and sorted (adjacent runs
    /// with different births stay separate).
    runs: BTreeMap<u64, (u64, SimTime)>,
}

impl TimedRanges {
    /// Removes every run overlapping `r`, splitting boundary runs, and
    /// returns the removed `(len, birth)` pieces.
    fn remove(&mut self, r: ByteRange) -> Vec<(u64, SimTime)> {
        if r.is_empty() || self.runs.is_empty() {
            return Vec::new();
        }
        let scan_from = match self.runs.range(..r.start).next_back() {
            Some((&s, &(e, _))) if e > r.start => s,
            _ => r.start,
        };
        let mut removed = Vec::new();
        let mut to_delete = Vec::new();
        let mut to_insert = Vec::new();
        for (&s, &(e, birth)) in self.runs.range(scan_from..r.end) {
            if e <= r.start {
                continue;
            }
            let cut = ByteRange::new(s, e)
                .intersection(r)
                .expect("scanned run overlaps");
            removed.push((cut.len(), birth));
            to_delete.push(s);
            if s < cut.start {
                to_insert.push((s, (cut.start, birth)));
            }
            if cut.end < e {
                to_insert.push((cut.end, (e, birth)));
            }
        }
        for s in to_delete {
            self.runs.remove(&s);
        }
        for (s, v) in to_insert {
            self.runs.insert(s, v);
        }
        removed
    }

    /// Overwrites `r` at time `t`: kills overlapped runs (returned) and
    /// inserts a fresh run born at `t`.
    fn write(&mut self, r: ByteRange, t: SimTime) -> Vec<(u64, SimTime)> {
        let killed = self.remove(r);
        if !r.is_empty() {
            self.runs.insert(r.start, (r.end, t));
        }
        killed
    }

    /// Removes and returns every run as `(len, birth)` pairs.
    fn drain(&mut self) -> Vec<(u64, SimTime)> {
        let res: Vec<(u64, SimTime)> = self.runs.iter().map(|(&s, &(e, b))| (e - s, b)).collect();
        self.runs.clear();
        res
    }

    fn total(&self) -> u64 {
        self.runs.iter().map(|(&s, &(e, _))| e - s).sum()
    }
}

/// The complete lifetime log of one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifetimeLog {
    /// All byte-run fate records.
    pub records: Vec<FateRecord>,
    /// Total bytes written by applications.
    pub total_write_bytes: u64,
    /// End time of the trace.
    end_time: SimTime,
}

impl LifetimeLog {
    /// Runs the infinite-cache pass over `ops`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvfs_core::lifetime::{ByteFate, LifetimeLog};
    /// use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
    ///
    /// let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    /// let log = LifetimeLog::analyze(traces.trace(0).ops());
    /// let fates = log.bytes_by_fate();
    /// assert!(fates.get(&ByteFate::Deleted).copied().unwrap_or(0) > 0);
    /// ```
    pub fn analyze(ops: &OpStream) -> Self {
        let mut dirty: BTreeMap<(ClientId, FileId), TimedRanges> = BTreeMap::new();
        let mut server = ConsistencyServer::new();
        let mut log = LifetimeLog {
            end_time: ops.end_time(),
            ..LifetimeLog::default()
        };

        for op in ops {
            let t = op.time;
            match &op.kind {
                OpKind::Open { file, mode } => {
                    let outcome = server.on_open(*file, op.client, *mode);
                    if let Some(w) = outcome.recall_from {
                        log.flush_all(&mut dirty, w, *file, ByteFate::CalledBack, t);
                        server.note_flush(*file, w);
                    }
                    if outcome.invalidate_opener {
                        // The opener's own copies are stale (another client
                        // wrote since); any dirty bytes it still held are
                        // recalled along with the invalidation, exactly as
                        // the finite-cache simulator does.
                        log.flush_all(&mut dirty, op.client, *file, ByteFate::CalledBack, t);
                    }
                    if outcome.disable_caching {
                        let writers: Vec<ClientId> = dirty
                            .keys()
                            .filter(|(_, f)| *f == *file)
                            .map(|&(c, _)| c)
                            .collect();
                        for c in writers {
                            log.flush_all(&mut dirty, c, *file, ByteFate::CalledBack, t);
                        }
                    }
                }
                OpKind::Close { file } => {
                    server.on_close(*file, op.client);
                }
                OpKind::Write { file, range } => {
                    log.total_write_bytes += range.len();
                    if server.is_disabled(*file) {
                        log.records.push(FateRecord {
                            len: range.len(),
                            birth: t,
                            fate: ByteFate::Concurrent,
                            fate_time: t,
                        });
                    } else {
                        let killed = dirty
                            .entry((op.client, *file))
                            .or_default()
                            .write(*range, t);
                        for (len, birth) in killed {
                            log.records.push(FateRecord {
                                len,
                                birth,
                                fate: ByteFate::Overwritten,
                                fate_time: t,
                            });
                        }
                        server.note_write(*file, op.client);
                    }
                }
                OpKind::Truncate { file, new_len } => {
                    let clients: Vec<ClientId> = dirty
                        .keys()
                        .filter(|(_, f)| *f == *file)
                        .map(|&(c, _)| c)
                        .collect();
                    for c in clients {
                        let killed = dirty
                            .get_mut(&(c, *file))
                            .expect("key just scanned")
                            .remove(ByteRange::new(*new_len, u64::MAX));
                        for (len, birth) in killed {
                            log.records.push(FateRecord {
                                len,
                                birth,
                                fate: ByteFate::Deleted,
                                fate_time: t,
                            });
                        }
                    }
                }
                OpKind::Delete { file } => {
                    let clients: Vec<ClientId> = dirty
                        .keys()
                        .filter(|(_, f)| *f == *file)
                        .map(|&(c, _)| c)
                        .collect();
                    for c in clients {
                        log.flush_all(&mut dirty, c, *file, ByteFate::Deleted, t);
                    }
                    server.on_delete(*file);
                }
                OpKind::Fsync { .. } => {
                    // Infinite NVRAM: fsync'd data is already permanent.
                }
                OpKind::Migrate { files, .. } => {
                    for file in files {
                        log.flush_all(&mut dirty, op.client, *file, ByteFate::Migrated, t);
                        server.note_flush(*file, op.client);
                    }
                }
                OpKind::Read { .. } => {}
            }
        }

        // Everything still dirty remains at the end of the trace.
        let end = log.end_time;
        for ((_, _), ranges) in dirty.iter_mut() {
            if ranges.total() == 0 {
                continue;
            }
            for (len, birth) in ranges.drain() {
                log.records.push(FateRecord {
                    len,
                    birth,
                    fate: ByteFate::Remaining,
                    fate_time: end,
                });
            }
        }
        log
    }

    fn flush_all(
        &mut self,
        dirty: &mut BTreeMap<(ClientId, FileId), TimedRanges>,
        client: ClientId,
        file: FileId,
        fate: ByteFate,
        t: SimTime,
    ) {
        if let Some(ranges) = dirty.get_mut(&(client, file)) {
            for (len, birth) in ranges.drain() {
                self.records.push(FateRecord {
                    len,
                    birth,
                    fate,
                    fate_time: t,
                });
            }
            dirty.remove(&(client, file));
        }
    }

    /// Bytes per fate — the rows of Table 2.
    pub fn bytes_by_fate(&self) -> BTreeMap<ByteFate, u64> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.fate).or_insert(0) += r.len;
        }
        map
    }

    /// Fraction of written bytes absorbed by the infinite cache
    /// (overwritten or deleted before reaching the server).
    pub fn absorbed_fraction(&self) -> f64 {
        if self.total_write_bytes == 0 {
            return 0.0;
        }
        let absorbed: u64 = self
            .records
            .iter()
            .filter(|r| r.fate.is_absorbed())
            .map(|r| r.len)
            .sum();
        absorbed as f64 / self.total_write_bytes as f64
    }

    /// Net write traffic (percent of application writes) if dirty bytes
    /// were flushed after a fixed `delay` — the Figure 2 curve.
    ///
    /// A byte is absorbed only if it dies (by overwrite or delete) within
    /// `delay` of its birth; bytes recalled by consistency, written through
    /// concurrently, or remaining at trace end always count as traffic.
    pub fn net_write_traffic_at_delay(&self, delay: SimDuration) -> f64 {
        if self.total_write_bytes == 0 {
            return 0.0;
        }
        let traffic: u64 = self
            .records
            .iter()
            .map(|r| match r.fate {
                ByteFate::Overwritten | ByteFate::Deleted => {
                    if r.age() <= delay {
                        0
                    } else {
                        r.len
                    }
                }
                _ => r.len,
            })
            .sum();
        100.0 * traffic as f64 / self.total_write_bytes as f64
    }

    /// Byte-weighted quantile of death ages: the age below which fraction
    /// `q` of the *dying* bytes die. Returns `None` when nothing dies.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    fn death_age_quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut dying: Vec<(SimDuration, u64)> = self
            .records
            .iter()
            .filter(|r| r.fate.is_absorbed())
            .map(|r| (r.age(), r.len))
            .collect();
        if dying.is_empty() {
            return None;
        }
        dying.sort_by_key(|&(age, _)| age);
        let total: u64 = dying.iter().map(|&(_, len)| len).sum();
        let target = (total as f64 * q).ceil() as u64;
        let mut acc = 0;
        for (age, len) in dying {
            acc += len;
            if acc >= target {
                return Some(age);
            }
        }
        None
    }

    /// Median death age of dying bytes (half-life of dirty data).
    pub fn median_death_age(&self) -> Option<SimDuration> {
        self.death_age_quantile(0.5)
    }

    /// Fraction of written bytes that die (overwrite/delete) within `d`.
    pub fn death_fraction_within(&self, d: SimDuration) -> f64 {
        if self.total_write_bytes == 0 {
            return 0.0;
        }
        let dead: u64 = self
            .records
            .iter()
            .filter(|r| r.fate.is_absorbed() && r.age() <= d)
            .map(|r| r.len)
            .sum();
        dead as f64 / self.total_write_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::event::OpenMode;
    use nvfs_trace::op::Op;

    fn op(t: u64, client: u32, kind: OpKind) -> Op {
        Op {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            kind,
        }
    }

    #[test]
    fn overwrite_records_death_with_age() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                10,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                40,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        assert_eq!(log.total_write_bytes, 200);
        let fates = log.bytes_by_fate();
        assert_eq!(fates[&ByteFate::Overwritten], 100);
        assert_eq!(fates[&ByteFate::Remaining], 100);
        let dead: Vec<&FateRecord> = log
            .records
            .iter()
            .filter(|r| r.fate == ByteFate::Overwritten)
            .collect();
        assert_eq!(dead[0].age(), SimDuration::from_secs(30));
    }

    #[test]
    fn delay_sweep_is_monotone_nonincreasing() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                20,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                500,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        let at = |s| log.net_write_traffic_at_delay(SimDuration::from_secs(s));
        assert!(at(0) >= at(30));
        assert!(at(30) >= at(1000));
        // At zero delay everything is traffic.
        assert_eq!(at(0), 100.0);
        // With a 30 s delay, the first overwrite (age 19 s) is absorbed.
        assert!((at(30) - 200.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn partial_overwrite_splits_runs() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                10,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(50, 150),
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        let fates = log.bytes_by_fate();
        assert_eq!(fates[&ByteFate::Overwritten], 50);
        assert_eq!(fates[&ByteFate::Remaining], 150);
    }

    #[test]
    fn truncate_and_delete_are_deletions() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                5,
                0,
                OpKind::Truncate {
                    file: FileId(0),
                    new_len: 60,
                },
            ),
            op(9, 0, OpKind::Delete { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        let fates = log.bytes_by_fate();
        assert_eq!(fates[&ByteFate::Deleted], 100);
        assert_eq!(log.absorbed_fraction(), 1.0);
    }

    #[test]
    fn callback_bytes_always_count_as_traffic() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(2, 0, OpKind::Close { file: FileId(0) }),
            op(
                3,
                1,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        let fates = log.bytes_by_fate();
        assert_eq!(fates[&ByteFate::CalledBack], 100);
        // Even a huge delay cannot absorb called-back bytes.
        assert_eq!(
            log.net_write_traffic_at_delay(SimDuration::from_hours(10)),
            100.0
        );
    }

    #[test]
    fn concurrent_writes_bypass() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                1,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                2,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        assert_eq!(log.bytes_by_fate()[&ByteFate::Concurrent], 100);
    }

    #[test]
    fn migration_flushes_to_server() {
        use nvfs_types::ProcessId;
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                2,
                0,
                OpKind::Migrate {
                    pid: ProcessId(0),
                    to: ClientId(1),
                    files: vec![FileId(0)],
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        assert_eq!(log.bytes_by_fate()[&ByteFate::Migrated], 100);
    }

    #[test]
    fn death_age_quantiles() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            // 100 bytes die at age 10 s, 100 at age 100 s, 100 remain.
            op(
                10,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                20,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                120,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
        ]
        .into_iter()
        .collect();
        let log = LifetimeLog::analyze(&ops);
        assert_eq!(
            log.death_age_quantile(0.25),
            Some(SimDuration::from_secs(10))
        );
        assert_eq!(log.median_death_age(), Some(SimDuration::from_secs(10)));
        assert_eq!(
            log.death_age_quantile(0.75),
            Some(SimDuration::from_secs(100))
        );
        assert_eq!(
            log.death_age_quantile(1.0),
            Some(SimDuration::from_secs(100))
        );
        // A write-only stream with no deaths has no quantiles.
        let only: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 10),
                },
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(LifetimeLog::analyze(&only).median_death_age(), None);
    }

    #[test]
    fn record_lengths_sum_to_written_bytes() {
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for trace in traces.traces() {
            let log = LifetimeLog::analyze(trace.ops());
            let sum: u64 = log.records.iter().map(|r| r.len).sum();
            assert_eq!(sum, log.total_write_bytes, "trace {}", trace.number());
            assert_eq!(log.total_write_bytes, trace.ops().app_write_bytes());
        }
    }
}
