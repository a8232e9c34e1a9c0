//! Server-side workloads for the LFS write-buffer study (§3).
//!
//! The paper sampled kernel counters of the main Sprite file server for two
//! weeks across eight LFS file systems (Table 3). We synthesize one
//! *arrival stream of dirty bytes and fsyncs* per file system, shaped after
//! the paper's description of each:
//!
//! * `/user6` — home directories plus "long-running data base benchmarks
//!   that request five fsyncs after every database transaction"; almost all
//!   its segment writes are tiny fsync-forced partials.
//! * `/local` — program installations: bursty writes, essentially no fsync.
//! * `/swap1` — paging traffic; "applications never write directly to the
//!   swap disk", so no fsyncs at all.
//! * `/user1`, `/user2`, `/user4` — home directories: editor saves (some
//!   fsync'd) plus development trickle.
//! * `/sprite/src/kernel` — the kernel development area: build bursts and
//!   fsync'd source saves.
//! * `/scratch4` — long-lived trace data, rarely touched.
//!
//! The streams are inputs to [`nvfs-lfs`](https://docs.rs/nvfs-lfs)'s
//! segment writer; the Table 3/4 percentages are *outputs* of that
//! simulation, not constants baked in here.

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_types::{ByteRange, FileId, SimDuration, SimTime};

use crate::synth::dist::{exponential, lognormal};

/// A server-side operation against one LFS file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsOp {
    /// When the operation reached the server.
    pub time: SimTime,
    /// What happened.
    pub kind: LfsOpKind,
}

/// The kind of an [`LfsOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfsOpKind {
    /// Bytes became dirty in the server's cache.
    Write {
        /// File written.
        file: FileId,
        /// Byte range written.
        range: ByteRange,
    },
    /// An application forced the file's dirty data to disk.
    Fsync {
        /// File fsync'd.
        file: FileId,
    },
    /// The file was deleted (its blocks die in the log; cleaner work).
    Delete {
        /// File deleted.
        file: FileId,
    },
}

/// A day of traffic for one named file system.
#[derive(Debug, Clone)]
pub struct FsWorkload {
    /// Mount point, e.g. `/user6`.
    pub name: &'static str,
    /// Time-ordered operations.
    pub ops: Vec<LfsOp>,
}

impl FsWorkload {
    /// Total bytes written to this file system.
    pub fn write_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                LfsOpKind::Write { range, .. } => range.len(),
                _ => 0,
            })
            .sum()
    }

    /// Number of fsync operations.
    pub fn fsync_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o.kind, LfsOpKind::Fsync { .. }))
            .count()
    }
}

/// Configuration for [`sprite_server_workloads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerWorkloadConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Observation window in hours (the paper sampled for two weeks; a
    /// single day reproduces the same per-segment statistics).
    pub hours: u64,
    /// Rate multiplier on activity (1.0 ≈ paper-scale daily volume).
    pub scale: f64,
}

impl ServerWorkloadConfig {
    /// Paper-scale: 24 hours of full-rate traffic.
    pub fn paper() -> Self {
        ServerWorkloadConfig {
            seed: 3990,
            hours: 24,
            scale: 1.0,
        }
    }

    /// Reduced scale for tests and examples.
    pub fn small() -> Self {
        ServerWorkloadConfig {
            seed: 3990,
            hours: 6,
            scale: 0.6,
        }
    }

    /// Minimal scale for unit tests.
    pub fn tiny() -> Self {
        ServerWorkloadConfig {
            seed: 11,
            hours: 2,
            scale: 0.4,
        }
    }

    /// Cluster-scale: a two-day window at moderate rate, matching the
    /// wide-cluster client traces of `TraceSetConfig::mega`.
    pub fn mega() -> Self {
        ServerWorkloadConfig {
            seed: 3990,
            hours: 48,
            scale: 0.5,
        }
    }

    fn end(&self) -> SimTime {
        SimTime::from_hours(self.hours)
    }
}

impl Default for ServerWorkloadConfig {
    fn default() -> Self {
        ServerWorkloadConfig::small()
    }
}

/// The eight Sprite file systems of Table 3, in the paper's row order.
pub const SPRITE_FILE_SYSTEMS: [&str; 8] = [
    "/user6",
    "/local",
    "/swap1",
    "/user1",
    "/user4",
    "/sprite/src/kernel",
    "/user2",
    "/scratch4",
];

/// Generates the eight per-file-system workloads deterministically.
///
/// # Examples
///
/// ```
/// use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
///
/// let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
/// assert_eq!(ws.len(), 8);
/// assert_eq!(ws[0].name, "/user6");
/// assert_eq!(ws[2].fsync_count(), 0); // /swap1 never fsyncs
/// ```
pub fn sprite_server_workloads(cfg: &ServerWorkloadConfig) -> Vec<FsWorkload> {
    SPRITE_FILE_SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut g = FsGen::new(cfg, i as u64);
            match *name {
                "/user6" => g.user6(),
                "/local" => g.local(),
                "/swap1" => g.swap(),
                "/user1" => g.home(1.0, 0.18),
                "/user4" => g.home(0.8, 0.10),
                "/sprite/src/kernel" => g.kernel(),
                "/user2" => g.home(0.16, 0.20),
                "/scratch4" => g.scratch(),
                _ => unreachable!("unknown file system"),
            };
            FsWorkload {
                name,
                ops: g.finish(),
            }
        })
        .collect()
}

/// The op-list capacity one growth step stops at instead of doubling past
/// it. glibc's malloc serves a freed block from its heap again only if the
/// block, header and page rounding included, is under 32 MiB (its largest
/// dynamic mmap threshold); larger blocks are mapped afresh, and every page
/// faulted in again, each time. `/user6` holds about a million 32-byte ops,
/// and plain doubling would size its list at exactly 32 MiB. Capping that
/// one step lets repeated generation (a benchmark's set-ups) reuse the
/// freed list. Only capacity changes; the ops are the same.
const OPS_GROWTH_CAP: usize = ((32 << 20) - 8192) / std::mem::size_of::<LfsOp>();

struct FsGen {
    rng: StdRng,
    ops: Vec<LfsOp>,
    next_file: u32,
    end: SimTime,
    scale: f64,
}

impl FsGen {
    fn new(cfg: &ServerWorkloadConfig, salt: u64) -> Self {
        FsGen {
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x517C_C1B7).wrapping_add(salt)),
            ops: Vec::new(),
            next_file: 0,
            end: cfg.end(),
            scale: cfg.scale,
        }
    }

    fn finish(mut self) -> Vec<LfsOp> {
        self.ops.sort_by_key(|o| o.time);
        self.ops
    }

    fn file(&mut self) -> FileId {
        let f = FileId(self.next_file);
        self.next_file += 1;
        f
    }

    fn push(&mut self, op: LfsOp) {
        let cap = self.ops.capacity();
        if self.ops.len() == cap && cap < OPS_GROWTH_CAP && cap * 2 > OPS_GROWTH_CAP {
            self.ops.reserve_exact(OPS_GROWTH_CAP - cap);
        }
        self.ops.push(op);
    }

    fn write(&mut self, t: SimTime, file: FileId, offset: u64, len: u64) {
        self.push(LfsOp {
            time: t,
            kind: LfsOpKind::Write {
                file,
                range: ByteRange::at(offset, len),
            },
        });
    }

    fn fsync(&mut self, t: SimTime, file: FileId) {
        self.push(LfsOp {
            time: t,
            kind: LfsOpKind::Fsync { file },
        });
    }

    fn delete(&mut self, t: SimTime, file: FileId) {
        self.push(LfsOp {
            time: t,
            kind: LfsOpKind::Delete { file },
        });
    }

    fn gap(&mut self, mean_secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(exponential(&mut self.rng, mean_secs / self.scale))
    }

    fn size(&mut self, median: f64, sigma: f64, cap: u64) -> u64 {
        (lognormal(&mut self.rng, median, sigma) as u64).clamp(512, cap)
    }

    /// `/user6`: the database benchmark. Each transaction updates a page or
    /// two and the log, issuing five fsyncs; only the fsyncs that find new
    /// dirty data force a segment. A nightly bulk load provides the few
    /// full segments the paper observed, and a home-dir trickle provides
    /// timeout partials.
    fn user6(&mut self) {
        let db = self.file();
        let log = self.file();
        // Benchmark runs for ~70% of the observation window.
        let bench_end = scale_time(self.end, 0.72);
        let mut t = scale_time(self.end, 0.02);
        while t < bench_end {
            // Page update.
            let page = self.rng.gen_range(0..4096u64);
            let plen = self.size(5.0 * 1024.0, 0.4, 16 << 10);
            self.write(t, db, page * 4096, plen);
            self.fsync(t + SimDuration::from_millis(8), db);
            // Log record.
            let llen = self.size(2.5 * 1024.0, 0.4, 8 << 10);
            self.write(t + SimDuration::from_millis(16), log, 0, llen);
            self.fsync(t + SimDuration::from_millis(22), log);
            // Three redundant fsyncs (no new dirty data).
            for k in 0..3u64 {
                self.fsync(t + SimDuration::from_millis(30 + 4 * k), log);
            }
            t += self.gap(6.0).max(SimDuration::from_millis(200));
        }
        // Nightly bulk load: sequential full-bandwidth write.
        let bulk = self.file();
        let mut off = 0;
        let bulk_total = (80.0 * 1024.0 * 1024.0 * self.scale) as u64;
        let mut bt = scale_time(self.end, 0.8);
        while off < bulk_total && bt < self.end {
            let chunk = 256 << 10;
            self.write(bt, bulk, off, chunk);
            off += chunk;
            bt += SimDuration::from_millis(300);
        }
        // Home-directory trickle across the whole day.
        self.trickle(0.0, 1.0, 120.0, 8.0 * 1024.0, 0.8);
    }

    /// `/local`: program installations — bursts of files, almost no fsync.
    fn local(&mut self) {
        let mut t = SimTime::ZERO + self.gap(300.0);
        let mut installs = 0u32;
        while t < self.end {
            let total = self.size(220.0 * 1024.0, 0.9, 4 << 20);
            let mut written = 0;
            let mut bt = t;
            while written < total {
                let f = self.file();
                let len = self
                    .size(30.0 * 1024.0, 0.7, 256 << 10)
                    .min(total - written);
                self.write(bt, f, 0, len);
                written += len;
                bt += SimDuration::from_millis(self.rng.gen_range(20..200));
            }
            installs += 1;
            // One install in a great while runs `sync`-style fsyncs.
            if installs.is_multiple_of(150) {
                let f = self.file();
                self.write(bt, f, 0, 4096);
                self.fsync(bt + SimDuration::from_millis(5), f);
            }
            t += self.gap(4.0 * 60.0);
        }
    }

    /// `/swap1`: paging. Mostly small page-out bursts that age into timeout
    /// partials, with occasional heavy paging episodes that fill segments.
    /// Never fsyncs.
    fn swap(&mut self) {
        let swap_file = self.file();
        let mut t = SimTime::ZERO + self.gap(60.0);
        while t < self.end {
            let heavy = self.rng.gen_bool(0.08);
            let total = if heavy {
                self.size(2.0 * 1024.0 * 1024.0, 0.5, 16 << 20)
            } else {
                self.size(45.0 * 1024.0, 0.8, 300 << 10)
            };
            let mut written = 0;
            let mut bt = t;
            while written < total {
                let len = (32u64 << 10).min(total - written);
                let page_slot = self.rng.gen_range(0..65_536u64);
                self.write(bt, swap_file, page_slot * 4096, len);
                written += len;
                bt += SimDuration::from_millis(self.rng.gen_range(5..40));
            }
            t += self.gap(2.0 * 60.0);
        }
    }

    /// Home directories: editor saves (a fraction fsync'd) plus a
    /// development trickle and occasional large copies.
    ///
    /// `activity` scales the overall rate; `fsync_share` is the fraction of
    /// *segment-forcing events* that should be fsyncs, which we realize by
    /// interleaving fsync'd saves with non-fsync'd trickle writes.
    fn home(&mut self, activity: f64, fsync_share: f64) {
        // Editor saves with fsync.
        let saves_gap = 12.0 * 60.0 / activity * (0.18 / fsync_share).powf(1.5).clamp(0.3, 6.0);
        let doc = self.file();
        let mut t = SimTime::ZERO + self.gap(saves_gap);
        while t < self.end {
            let len = self.size(16.0 * 1024.0, 0.5, 128 << 10);
            self.write(t, doc, 0, len);
            self.fsync(t + SimDuration::from_millis(10), doc);
            t += self.gap(saves_gap);
        }
        // Development trickle: isolated writes that age out via the
        // 30-second flush.
        self.trickle(0.05, 0.95, 210.0 / activity, 20.0 * 1024.0, 0.8);
        // Occasional large copies: the ~10% full segments.
        let copies = ((4.0 * activity * self.scale).round() as usize).max(1);
        for _ in 0..copies {
            let start = scale_time(self.end, 0.1 + 0.8 * self.rng.gen::<f64>());
            let f = self.file();
            let total = self.size(3.0 * 1024.0 * 1024.0 * activity, 0.4, 16 << 20);
            let mut off = 0;
            let mut bt = start;
            while off < total {
                let chunk = 128 << 10;
                self.write(bt, f, off, chunk.min(total - off));
                off += chunk;
                bt += SimDuration::from_millis(150);
            }
        }
    }

    /// `/sprite/src/kernel`: kernel builds (bursts of object files, some
    /// link phases filling whole segments) plus fsync'd source saves.
    fn kernel(&mut self) {
        // Builds.
        let mut t = SimTime::ZERO + self.gap(40.0 * 60.0);
        while t < self.end {
            // Compile phase: steady object-file output.
            let objects = self.rng.gen_range(8..24);
            let mut bt = t;
            for _ in 0..objects {
                let f = self.file();
                let len = self.size(28.0 * 1024.0, 0.6, 192 << 10);
                self.write(bt, f, 0, len);
                bt += SimDuration::from_secs_f64(exponential(&mut self.rng, 8.0));
            }
            // Link phase: one large image written quickly.
            if self.rng.gen_bool(0.95) {
                let image = self.file();
                let total = self.size(2.6 * 1024.0 * 1024.0, 0.3, 8 << 20);
                let mut off = 0;
                while off < total {
                    let chunk = 128 << 10;
                    self.write(bt, image, off, chunk.min(total - off));
                    off += chunk;
                    bt += SimDuration::from_millis(120);
                }
            }
            t += self.gap(40.0 * 60.0);
        }
        // Source saves with fsync (editors on the kernel tree).
        let src = self.file();
        let mut t = SimTime::ZERO + self.gap(9.0 * 60.0);
        while t < self.end {
            let len = self.size(52.0 * 1024.0, 0.4, 256 << 10);
            self.write(t, src, 0, len);
            self.fsync(t + SimDuration::from_millis(10), src);
            t += self.gap(9.0 * 60.0);
        }
    }

    /// `/scratch4`: long-lived trace data, written rarely, never fsync'd.
    fn scratch(&mut self) {
        let sessions = ((2.0 * self.scale).round() as usize).max(1);
        for _ in 0..sessions {
            let start = scale_time(self.end, 0.15 + 0.7 * self.rng.gen::<f64>());
            let f = self.file();
            let mut t = start;
            let dumps = self.rng.gen_range(3..7);
            let mut off = 0;
            for _ in 0..dumps {
                let len = self.size(30.0 * 1024.0, 0.5, 256 << 10);
                self.write(t, f, off, len);
                off += len;
                t += SimDuration::from_secs_f64(exponential(&mut self.rng, 240.0));
            }
        }
    }

    /// Background trickle: isolated small writes, each typically aging out
    /// as its own timeout partial. Occasionally deletes its file to give
    /// the cleaner dead blocks.
    fn trickle(&mut self, from: f64, to: f64, mean_gap: f64, median: f64, sigma: f64) {
        let start = scale_time(self.end, from);
        let stop = scale_time(self.end, to);
        let mut t = start + self.gap(mean_gap);
        let mut current = self.file();
        let mut writes = 0u32;
        while t < stop {
            let len = self.size(median, sigma, 256 << 10);
            self.write(t, current, 0, len);
            writes += 1;
            if writes.is_multiple_of(24) {
                self.delete(t + SimDuration::from_secs(1), current);
                current = self.file();
            }
            t += self.gap(mean_gap);
        }
    }
}

fn scale_time(end: SimTime, f: f64) -> SimTime {
    SimTime::from_micros((end.as_micros() as f64 * f) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_filesystems_in_paper_order() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names, SPRITE_FILE_SYSTEMS.to_vec());
    }

    #[test]
    fn swap_and_scratch_never_fsync() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        assert_eq!(ws[2].fsync_count(), 0, "/swap1 must not fsync");
        assert_eq!(ws[7].fsync_count(), 0, "/scratch4 must not fsync");
    }

    #[test]
    fn user6_is_fsync_heavy() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let user6 = &ws[0];
        let writes = user6
            .ops
            .iter()
            .filter(|o| matches!(o.kind, LfsOpKind::Write { .. }))
            .count();
        assert!(
            user6.fsync_count() > writes,
            "db benchmark issues 5 fsyncs per transaction"
        );
    }

    #[test]
    fn ops_are_time_ordered() {
        for w in sprite_server_workloads(&ServerWorkloadConfig::tiny()) {
            let mut last = SimTime::ZERO;
            for op in &w.ops {
                assert!(op.time >= last, "{} out of order", w.name);
                last = op.time;
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let b = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.ops, wb.ops);
        }
    }

    #[test]
    fn user6_dominates_fsync_traffic() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let user6 = ws[0].fsync_count();
        let rest: usize = ws[1..].iter().map(|w| w.fsync_count()).sum();
        assert!(user6 > rest * 5, "user6 {user6} vs rest {rest}");
    }
}
