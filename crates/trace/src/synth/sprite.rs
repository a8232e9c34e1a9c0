//! Synthetic Sprite trace set.
//!
//! The paper drives its client-cache simulations with eight 24-hour traces
//! of the Berkeley Sprite cluster. Those traces are not publicly available,
//! so this module synthesizes a workload with the same *structure*:
//!
//! * eight independent day-long traces over a cluster of diskless clients;
//! * traces 3 and 4 carry "two users performing long-running simulations on
//!   large files" (§2.2), giving them much higher throughput and byte
//!   lifetimes concentrated below half an hour;
//! * the remaining "typical" traces mix software development (compile
//!   bursts with short-lived temporaries), editing (periodic whole-file
//!   saves and autosaves), log appends, shared project files that a
//!   colleague opens later (driving consistency callbacks), rare concurrent
//!   write-sharing, persistent new data files, process migrations, and a
//!   Zipf-popularity read corpus.
//!
//! Each file class has an explicit lifetime law, so the published shapes —
//! 35–50% of written bytes dying within 30 seconds on typical days (Fig. 2),
//! ≈65% absorbed by an infinite non-volatile cache (Table 2), callbacks near
//! 17% — *emerge* from the class mix rather than being hard-coded.
//!
//! Generation is deterministic for a given [`TraceSetConfig`].

use std::collections::BTreeMap;

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_types::{ClientId, FileId, ProcessId, SimDuration, SimTime};

use crate::convert::lower;
use crate::event::{EventKind, OpenMode, TraceEvent};
use crate::op::OpStream;
use crate::synth::dist::{exponential, lognormal, Zipf};

/// Number of traces in a set, as in the paper.
const TRACE_COUNT: usize = 8;

/// Paper trace numbers (1-based) that carry the large-file simulation
/// workload.
const LARGE_FILE_TRACES: [usize; 2] = [3, 4];

/// Configuration for [`SpriteTraceSet::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSetConfig {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Active client workstations per trace.
    pub clients: usize,
    /// Trace duration in hours (the paper's traces are 24-hour runs).
    pub hours: u64,
    /// Multiplier on file sizes (1.0 reproduces paper-scale volumes).
    pub scale: f64,
    /// Number of pre-existing files in the shared read corpus.
    pub corpus_files: usize,
}

impl TraceSetConfig {
    /// Paper-scale configuration: 12 active clients, 24-hour traces,
    /// full volume (typical traces ≈ 200–300 MB of application writes,
    /// traces 3 and 4 well over a gigabyte).
    pub fn paper() -> Self {
        TraceSetConfig {
            seed: 1992,
            clients: 12,
            hours: 24,
            scale: 1.0,
            corpus_files: 6000,
        }
    }

    /// Reduced configuration for integration tests and examples: fewer
    /// clients, shorter day, smaller files. Preserves the workload shape.
    pub fn small() -> Self {
        TraceSetConfig {
            seed: 1992,
            clients: 5,
            hours: 6,
            scale: 0.35,
            corpus_files: 2500,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        TraceSetConfig {
            seed: 1,
            clients: 3,
            hours: 2,
            scale: 0.2,
            corpus_files: 300,
        }
    }

    /// Duration of each trace.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_hours(self.hours)
    }
}

/// One synthetic 24-hour trace.
#[derive(Debug, Clone)]
pub struct Trace {
    number: usize,
    large_file_workload: bool,
    clients: usize,
    duration: SimDuration,
    /// The raw events the ops were lowered from. Kept in test builds only.
    #[cfg(test)]
    events: Vec<TraceEvent>,
    ops: OpStream,
    /// Bytes written per file class — the generation manifest that makes
    /// the calibration auditable (which lifetime law produced which share
    /// of the workload). Kept in test builds only.
    #[cfg(test)]
    manifest: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Paper trace number, 1 through 8.
    pub fn number(&self) -> usize {
        self.number
    }

    /// Whether this is one of the large-file simulation traces (3 or 4).
    pub fn is_large_file_workload(&self) -> bool {
        self.large_file_workload
    }

    /// Number of active clients.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Trace duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The raw trace events, in time order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The canonical op stream (pass 1 of the paper's pipeline).
    pub fn ops(&self) -> &OpStream {
        &self.ops
    }
}

/// The full set of eight traces.
#[derive(Debug, Clone)]
pub struct SpriteTraceSet {
    traces: Vec<Trace>,
}

impl SpriteTraceSet {
    /// Generates the eight traces deterministically from `cfg`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
    ///
    /// let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    /// assert_eq!(set.traces().len(), 8);
    /// assert!(set.trace(2).is_large_file_workload()); // paper trace 3
    /// ```
    pub fn generate(cfg: &TraceSetConfig) -> Self {
        // Each trace derives its RNG from (cfg.seed, number) alone, so the
        // eight generations are independent and fan out across worker
        // threads; par_map joins in submission order, keeping the set
        // byte-identical to a sequential build at any job count.
        let traces = nvfs_par::par_map((1..=TRACE_COUNT).collect(), nvfs_par::jobs(), |number| {
            let large = LARGE_FILE_TRACES.contains(&number);
            TraceGen::new(cfg, number, large).generate()
        });
        SpriteTraceSet { traces }
    }

    /// All eight traces in paper order (index 0 is paper trace 1).
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Trace by zero-based index (`0..8`). Paper trace *n* is `trace(n-1)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    pub fn trace(&self, idx: usize) -> &Trace {
        &self.traces[idx]
    }

    /// The "typical" traces: all except paper traces 3 and 4.
    pub fn typical(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter().filter(|t| !t.is_large_file_workload())
    }
}

/// Bytes per microsecond of simulated client write/read activity
/// (1 byte/µs ≈ 1 MB/s, a plausible late-80s workstation transfer rate).
const BYTES_PER_MICRO: u64 = 1;

/// Chunk size for emitted write transfers.
const WRITE_CHUNK: u64 = 32 * 1024;

struct TraceGen<'a> {
    cfg: &'a TraceSetConfig,
    number: usize,
    large: bool,
    rng: StdRng,
    events: Vec<TraceEvent>,
    next_file: u32,
    /// Current logical size of every file the generator knows about.
    sizes: BTreeMap<FileId, u64>,
    /// Read corpus: pre-existing files with fixed sizes.
    corpus: Vec<(FileId, u64)>,
    zipf_global: Zipf,
    end: SimTime,
    /// Per-trace activity intensity wobble (applied to activity gaps).
    intensity: f64,
    /// Bytes written per file class (the generation manifest).
    #[cfg(test)]
    manifest: BTreeMap<&'static str, u64>,
}

/// Per-client process-id slots; each activity gets its own pid so process
/// migration can attribute written files.
#[derive(Clone, Copy)]
enum Slot {
    Compile = 1,
    Edit = 2,
    Log = 3,
    Share = 4,
    Reader = 5,
    Sim = 6,
    Output = 7,
    Concurrent = 8,
}

impl<'a> TraceGen<'a> {
    fn new(cfg: &'a TraceSetConfig, number: usize, large: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(number as u64),
        );
        let end = SimTime::ZERO + cfg.duration();
        // Pre-existing corpus files.
        let mut next_file = 0u32;
        let mut sizes = BTreeMap::new();
        let mut corpus = Vec::with_capacity(cfg.corpus_files);
        for _ in 0..cfg.corpus_files {
            let f = FileId(next_file);
            next_file += 1;
            let size = (lognormal(&mut rng, 32.0 * 1024.0, 1.1) as u64).clamp(2048, 1 << 20);
            sizes.insert(f, size);
            corpus.push((f, size));
        }
        let intensity = 0.8 + 0.45 * rng.gen::<f64>();
        TraceGen {
            cfg,
            number,
            large,
            rng,
            events: Vec::new(),
            next_file,
            sizes,
            corpus,
            zipf_global: Zipf::new(cfg.corpus_files.max(1), 0.9),
            end,
            intensity,
            #[cfg(test)]
            manifest: BTreeMap::new(),
        }
    }

    /// Attributes `bytes` of writes to a file class in the manifest.
    #[cfg(test)]
    fn attribute(&mut self, class: &'static str, bytes: u64) {
        *self.manifest.entry(class).or_insert(0) += bytes;
    }

    /// The manifest is kept in test builds only.
    #[cfg(not(test))]
    fn attribute(&mut self, _class: &'static str, _bytes: u64) {}

    fn generate(mut self) -> Trace {
        let clients = self.cfg.clients;
        // Background intensity is reduced on the large-file traces (the
        // paper notes those days were dominated by the simulation users).
        let background = if self.large { 0.6 } else { 1.0 };

        for c in 0..clients {
            let client = ClientId(c as u32);
            let sessions = self.work_sessions();
            for w in &sessions {
                self.gen_compile_bursts(client, *w, background);
                self.gen_edit_session(client, *w, background);
                self.gen_shared_handoffs(client, *w, background);
                self.gen_reads(client, *w, background);
                self.gen_persistent_outputs(client, *w, background);
            }
            self.gen_log_appends(client, background);
            self.gen_slow_churn(client, background);
        }
        if self.large {
            // Two simulation users dominate traces 3 and 4.
            for c in 0..2.min(clients) {
                self.gen_simulation_run(ClientId(c as u32));
            }
        }
        self.gen_concurrent_incidents(background);
        self.gen_migrations();

        // Stable sort preserves per-file event order for equal timestamps.
        self.events.sort_by_key(|e| e.time);
        let ops = lower(&self.events);
        Trace {
            number: self.number,
            large_file_workload: self.large,
            clients,
            duration: self.cfg.duration(),
            #[cfg(test)]
            events: self.events,
            ops,
            #[cfg(test)]
            manifest: self.manifest,
        }
    }

    /// Two working sessions per client, as fractions of the trace day.
    fn work_sessions(&mut self) -> Vec<(SimTime, SimTime)> {
        let t = self.end.as_micros() as f64;
        let mut sessions = Vec::new();
        for (lo, hi) in [(0.04, 0.40), (0.48, 0.88)] {
            let start = t * (lo + 0.05 * self.rng.gen::<f64>());
            let len = t * (hi - lo) * (0.6 + 0.4 * self.rng.gen::<f64>());
            let end = (start + len).min(t * hi);
            sessions.push((
                SimTime::from_micros(start as u64),
                SimTime::from_micros(end as u64),
            ));
        }
        sessions
    }

    fn pid(&self, client: ClientId, slot: Slot) -> ProcessId {
        ProcessId(client.0 * 16 + slot as u32)
    }

    fn new_file(&mut self) -> FileId {
        let f = FileId(self.next_file);
        self.next_file += 1;
        f
    }

    fn push(&mut self, time: SimTime, client: ClientId, pid: ProcessId, kind: EventKind) {
        self.events.push(TraceEvent {
            time,
            client,
            pid,
            kind,
        });
    }

    /// Emits open → (truncate) → sequential chunked writes → (fsync) → close,
    /// advancing `*t` past the transfer. Updates the tracked file size.
    #[allow(clippy::too_many_arguments)]
    fn write_file(
        &mut self,
        t: &mut SimTime,
        client: ClientId,
        pid: ProcessId,
        file: FileId,
        len: u64,
        truncate: bool,
        fsync: bool,
    ) {
        self.push(
            *t,
            client,
            pid,
            EventKind::Open {
                file,
                mode: OpenMode::Write,
            },
        );
        bump(t, 2_000);
        if truncate {
            self.push(*t, client, pid, EventKind::Truncate { file, new_len: 0 });
            self.sizes.insert(file, 0);
            bump(t, 1_000);
        }
        let mut off = 0;
        while off < len {
            let chunk = WRITE_CHUNK.min(len - off);
            self.push(*t, client, pid, EventKind::Write { file, len: chunk });
            bump(t, (chunk / BYTES_PER_MICRO).max(1_000));
            off += chunk;
        }
        let size = self.sizes.entry(file).or_insert(0);
        *size = (*size).max(len);
        if fsync {
            self.push(*t, client, pid, EventKind::Fsync { file });
            bump(t, 20_000);
        }
        self.push(*t, client, pid, EventKind::Close { file });
        bump(t, 1_000);
    }

    /// Emits open → (seek) → read → close for `range_len` bytes at `offset`.
    #[allow(clippy::too_many_arguments)]
    fn read_file(
        &mut self,
        t: &mut SimTime,
        client: ClientId,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        range_len: u64,
    ) {
        self.push(
            *t,
            client,
            pid,
            EventKind::Open {
                file,
                mode: OpenMode::Read,
            },
        );
        bump(t, 2_000);
        if offset > 0 {
            self.push(*t, client, pid, EventKind::Seek { file, offset });
            bump(t, 500);
        }
        self.push(
            *t,
            client,
            pid,
            EventKind::Read {
                file,
                len: range_len,
            },
        );
        bump(t, (range_len / BYTES_PER_MICRO).max(1_000));
        self.push(*t, client, pid, EventKind::Close { file });
        bump(t, 1_000);
    }

    /// Appends `len` bytes to `file` (open, seek to end, write, close).
    fn append_file(
        &mut self,
        t: &mut SimTime,
        client: ClientId,
        pid: ProcessId,
        file: FileId,
        len: u64,
    ) {
        let offset = *self.sizes.get(&file).unwrap_or(&0);
        self.push(
            *t,
            client,
            pid,
            EventKind::Open {
                file,
                mode: OpenMode::Write,
            },
        );
        bump(t, 2_000);
        if offset > 0 {
            self.push(*t, client, pid, EventKind::Seek { file, offset });
            bump(t, 500);
        }
        self.push(*t, client, pid, EventKind::Write { file, len });
        bump(t, (len / BYTES_PER_MICRO).max(1_000));
        self.push(*t, client, pid, EventKind::Close { file });
        bump(t, 1_000);
        self.sizes.insert(file, offset + len);
    }

    /// Software-development bursts: short-lived compiler temporaries that
    /// are written, read back, and deleted within seconds to minutes, plus
    /// an output binary rewritten in place each burst.
    fn gen_compile_bursts(&mut self, client: ClientId, w: (SimTime, SimTime), intensity: f64) {
        let pid = self.pid(client, Slot::Compile);
        let out_pid = self.pid(client, Slot::Output);
        let output = self.new_file();
        let gap = 28.0 * 60.0 / (self.intensity * intensity);
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, gap / 2.0));
        while t < w.1 {
            let n_temps = self.rng.gen_range(10..=20);
            let mut cursor = t;
            for _ in 0..n_temps {
                let f = self.new_file();
                let size =
                    scaled_size(&mut self.rng, self.cfg.scale, 40.0 * 1024.0, 0.9, 512 << 10);
                let mut wt = cursor;
                self.write_file(&mut wt, client, pid, f, size, false, false);
                self.attribute("compile-temp", size);
                // Read back shortly after (the "linker" pass)…
                let mut rt = wt + SimDuration::from_secs_f64(exponential(&mut self.rng, 4.0));
                self.read_file(&mut rt, client, pid, f, 0, size);
                // …and delete within seconds to a couple of minutes.
                let dt = rt
                    + SimDuration::from_secs_f64(exponential(&mut self.rng, 8.0).clamp(1.0, 70.0));
                self.push(dt, client, pid, EventKind::Delete { file: f });
                self.sizes.remove(&f);
                cursor = wt + SimDuration::from_millis(self.rng.gen_range(50..400));
            }
            // Output binary: overwritten in place at the next burst, so its
            // bytes die by overwrite after tens of minutes.
            let out_size = scaled_size(&mut self.rng, self.cfg.scale, 200.0 * 1024.0, 0.5, 2 << 20);
            let mut ot = cursor;
            self.write_file(&mut ot, client, out_pid, output, out_size, false, false);
            self.attribute("compile-output", out_size);
            t += SimDuration::from_secs_f64(
                exponential(&mut self.rng, gap).clamp(300.0, 4.0 * 3600.0),
            );
        }
    }

    /// Editing: periodic whole-file saves (truncate + rewrite) on a couple
    /// of documents, plus a rapidly-overwritten autosave file that is
    /// deleted when the session ends.
    fn gen_edit_session(&mut self, client: ClientId, w: (SimTime, SimTime), intensity: f64) {
        let pid = self.pid(client, Slot::Edit);
        let docs: Vec<(FileId, u64)> = (0..2)
            .map(|_| {
                let f = self.new_file();
                let size =
                    scaled_size(&mut self.rng, self.cfg.scale, 45.0 * 1024.0, 0.6, 512 << 10);
                (f, size)
            })
            .collect();
        let autosave = self.new_file();
        let autosave_size =
            scaled_size(&mut self.rng, self.cfg.scale, 12.0 * 1024.0, 0.4, 64 << 10);

        // Saves.
        let save_gap = 7.0 * 60.0 / (self.intensity * intensity);
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, save_gap));
        while t < w.1 {
            let (f, base) = docs[self.rng.gen_range(0..docs.len())];
            let size = jitter(&mut self.rng, base, 0.15).max(2048);
            let fsync = self.rng.gen_bool(0.3);
            let mut wt = t;
            self.write_file(&mut wt, client, pid, f, size, true, fsync);
            self.attribute("edit-save", size);
            t += SimDuration::from_secs_f64(
                exponential(&mut self.rng, save_gap).clamp(20.0, 3600.0),
            );
        }
        // Autosaves.
        let auto_gap = 150.0 / (self.intensity * intensity);
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, auto_gap));
        while t < w.1 {
            let mut wt = t;
            self.write_file(&mut wt, client, pid, autosave, autosave_size, true, false);
            self.attribute("autosave", autosave_size);
            t +=
                SimDuration::from_secs_f64(exponential(&mut self.rng, auto_gap).clamp(15.0, 900.0));
        }
        // The autosave file is removed at session end.
        self.push(w.1, client, pid, EventKind::Delete { file: autosave });
        self.sizes.remove(&autosave);
    }

    /// Log appends over the whole day; these bytes never die, so they are
    /// part of the "Remaining" row of Table 2.
    fn gen_log_appends(&mut self, client: ClientId, intensity: f64) {
        let pid = self.pid(client, Slot::Log);
        let log = self.new_file();
        let gap = 120.0 / (self.intensity * intensity);
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(exponential(&mut self.rng, gap));
        while t < self.end {
            let len =
                (scaled_size(&mut self.rng, self.cfg.scale, 2.0 * 1024.0, 0.5, 16 << 10)).max(256);
            let mut wt = t;
            self.append_file(&mut wt, client, pid, log, len);
            self.attribute("log-append", len);
            t += SimDuration::from_secs_f64(exponential(&mut self.rng, gap).clamp(5.0, 1800.0));
        }
    }

    /// Slowly-churning working files: a small per-client set of data files
    /// rewritten a few times over the day. Their bytes die hours after
    /// being written, which is what makes additional NVRAM keep paying off
    /// (gradually) beyond the first megabyte in Figure 3.
    fn gen_slow_churn(&mut self, client: ClientId, intensity: f64) {
        let pid = self.pid(client, Slot::Output);
        let day = self.end.as_micros() as f64;
        let rewrite_gap_secs = (day / 1e6 / 6.0).max(3600.0) / (self.intensity * intensity);
        for _ in 0..8 {
            let f = self.new_file();
            let size = scaled_size(&mut self.rng, self.cfg.scale, 110.0 * 1024.0, 0.5, 1 << 20);
            let mut t = SimTime::from_micros((day * (0.03 + 0.22 * self.rng.gen::<f64>())) as u64);
            let stop = SimTime::from_micros((day * 0.95) as u64);
            while t < stop {
                let mut wt = t;
                self.write_file(&mut wt, client, pid, f, size, true, false);
                self.attribute("slow-churn", size);
                t += SimDuration::from_secs_f64(
                    exponential(&mut self.rng, rewrite_gap_secs).clamp(900.0, day / 1e6),
                );
            }
        }
    }

    /// Shared project files: this client writes a file and a colleague
    /// opens it minutes later, forcing the server to recall (call back) the
    /// dirty data — the dominant server-write category of Table 2.
    fn gen_shared_handoffs(&mut self, client: ClientId, w: (SimTime, SimTime), intensity: f64) {
        let pid = self.pid(client, Slot::Share);
        let gap = 18.0 * 60.0 / (self.intensity * intensity);
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, gap));
        while t < w.1 {
            let f = self.new_file();
            let size = scaled_size(&mut self.rng, self.cfg.scale, 140.0 * 1024.0, 0.8, 2 << 20);
            let mut wt = t;
            self.write_file(&mut wt, client, pid, f, size, false, false);
            self.attribute("shared-handoff", size);
            // A colleague opens the file after an exponential delay.
            let reader = self.other_client(client);
            let reader_pid = self.pid(reader, Slot::Reader);
            let delay = exponential(&mut self.rng, 12.0 * 60.0).clamp(30.0, 4.0 * 3600.0);
            let mut rt = wt + SimDuration::from_secs_f64(delay);
            if rt < self.end {
                // Colleagues often inspect only part of a shared file; a
                // block-granular consistency protocol benefits from this.
                let read_len = if size > 48 << 10 {
                    self.rng.gen_range(size / 4..=size)
                } else {
                    size
                };
                self.read_file(&mut rt, reader, reader_pid, f, 0, read_len);
            }
            t += SimDuration::from_secs_f64(
                exponential(&mut self.rng, gap).clamp(60.0, 4.0 * 3600.0),
            );
        }
    }

    /// New data files (results, documents) that persist to the end of the
    /// trace: the non-log component of "Remaining".
    fn gen_persistent_outputs(&mut self, client: ClientId, w: (SimTime, SimTime), intensity: f64) {
        let pid = self.pid(client, Slot::Output);
        let gap = 45.0 * 60.0 / (self.intensity * intensity);
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, gap));
        while t < w.1 {
            let f = self.new_file();
            let size = scaled_size(&mut self.rng, self.cfg.scale, 120.0 * 1024.0, 0.8, 2 << 20);
            let mut wt = t;
            self.write_file(&mut wt, client, pid, f, size, false, false);
            self.attribute("persistent-output", size);
            t += SimDuration::from_secs_f64(
                exponential(&mut self.rng, gap).clamp(120.0, 6.0 * 3600.0),
            );
        }
    }

    /// Read activity over the shared corpus with per-client preference:
    /// 75% of reads hit the client's own slice of the corpus, the rest are
    /// global, both Zipf-popular.
    fn gen_reads(&mut self, client: ClientId, w: (SimTime, SimTime), intensity: f64) {
        let pid = self.pid(client, Slot::Reader);
        let n = self.corpus.len();
        if n == 0 {
            return;
        }
        let slice_len = (n / self.cfg.clients.max(1)).max(1);
        let slice_start = (client.index() * slice_len) % n;
        let zipf_local = Zipf::new(slice_len, 0.4);
        let gap = 9.0 / (self.intensity * intensity);
        // Recently-read corpus indices, most recent last. Re-references at
        // an exponential stack depth give the miss ratio a smooth,
        // cache-size-sensitive profile (the paper's clients saw ~60% read
        // absorption at ~7 MB with further gains from more memory).
        let mut recent: Vec<usize> = Vec::new();
        let mut t = w.0 + SimDuration::from_secs_f64(exponential(&mut self.rng, gap));
        while t < w.1 {
            let idx = if !recent.is_empty() && self.rng.gen_bool(0.6) {
                // Re-reference at an exponential LRU-stack depth. `recent`
                // is a true LRU stack of *distinct* files (move-to-back on
                // every reference), so a sampled depth of ~180 files is a
                // genuine stack distance of roughly 10 MB -- the 8..16 MB
                // cache range is exactly where these hits become misses.
                let depth = (exponential(&mut self.rng, 180.0) as usize).min(recent.len() - 1);
                recent[recent.len() - 1 - depth]
            } else if self.rng.gen_bool(0.75) {
                (slice_start + zipf_local.sample(&mut self.rng)) % n
            } else {
                self.zipf_global.sample(&mut self.rng)
            };
            if let Some(pos) = recent.iter().rposition(|&x| x == idx) {
                recent.remove(pos);
            }
            recent.push(idx);
            let (f, size) = self.corpus[idx];
            // Big files are read in slices, small ones whole.
            let (off, len) = if size > 256 << 10 {
                let len = self.rng.gen_range((48 << 10)..=(128 << 10)).min(size);
                let off = self.rng.gen_range(0..=(size - len));
                (off, len)
            } else {
                (0, size)
            };
            let mut rt = t;
            self.read_file(&mut rt, client, pid, f, off, len);
            t += SimDuration::from_secs_f64(exponential(&mut self.rng, gap).clamp(0.5, 600.0));
        }
    }

    /// The long-running simulation workload of traces 3 and 4: a large
    /// output file rewritten from scratch every ~quarter hour (bytes die by
    /// truncation within ~30 minutes) plus a small status file rewritten
    /// every few seconds (the 5–10% of bytes that die within 30 seconds).
    fn gen_simulation_run(&mut self, client: ClientId) {
        let pid = self.pid(client, Slot::Sim);
        let output = self.new_file();
        let status = self.new_file();
        let out_size = scaled_size(
            &mut self.rng,
            self.cfg.scale,
            20.0 * 1024.0 * 1024.0,
            0.3,
            64 << 20,
        );
        let status_size = scaled_size(&mut self.rng, self.cfg.scale, 16.0 * 1024.0, 0.2, 64 << 10);
        let t_end = SimTime::from_micros((self.end.as_micros() as f64 * 0.97) as u64);
        let mut t = SimTime::from_micros((self.end.as_micros() as f64 * 0.02) as u64);
        while t < t_end {
            // Checkpoint pass: truncate and rewrite the whole output file.
            let mut wt = t;
            self.write_file(&mut wt, client, pid, output, out_size, true, false);
            self.attribute("sim-checkpoint", out_size);
            // Compute phase with frequent status rewrites.
            let compute = exponential(&mut self.rng, 16.0 * 60.0).clamp(240.0, 3600.0);
            let phase_end = (wt + SimDuration::from_secs_f64(compute)).min(t_end);
            let mut st = wt + SimDuration::from_secs_f64(exponential(&mut self.rng, 9.0));
            while st < phase_end {
                let mut swt = st;
                self.write_file(&mut swt, client, pid, status, status_size, false, false);
                self.attribute("sim-status", status_size);
                st += SimDuration::from_secs_f64(exponential(&mut self.rng, 9.0).clamp(2.0, 60.0));
            }
            t = phase_end;
        }
    }

    /// Rare concurrent write-sharing incidents: two clients hold the same
    /// file open, at least one writing, so caching is disabled and all the
    /// traffic goes straight to the server (a "minuscule" category in
    /// Table 2).
    fn gen_concurrent_incidents(&mut self, intensity: f64) {
        if self.cfg.clients < 2 {
            return;
        }
        let n = ((3.0 * intensity).round() as usize).max(1);
        for _ in 0..n {
            let a = ClientId(self.rng.gen_range(0..self.cfg.clients) as u32);
            let b = self.other_client(a);
            let pid_a = self.pid(a, Slot::Concurrent);
            let pid_b = self.pid(b, Slot::Concurrent);
            let f = self.new_file();
            let start = self.rand_time(0.1, 0.85);
            let mut t = start;
            self.push(
                t,
                a,
                pid_a,
                EventKind::Open {
                    file: f,
                    mode: OpenMode::Write,
                },
            );
            bump(&mut t, 50_000);
            self.push(
                t,
                b,
                pid_b,
                EventKind::Open {
                    file: f,
                    mode: OpenMode::ReadWrite,
                },
            );
            bump(&mut t, 50_000);
            let rounds = self.rng.gen_range(3..7);
            let chunk = scaled_size(&mut self.rng, self.cfg.scale, 6.0 * 1024.0, 0.3, 32 << 10);
            for _ in 0..rounds {
                self.push(
                    t,
                    a,
                    pid_a,
                    EventKind::Write {
                        file: f,
                        len: chunk,
                    },
                );
                bump(&mut t, chunk.max(5_000));
                self.push(
                    t,
                    b,
                    pid_b,
                    EventKind::Write {
                        file: f,
                        len: chunk,
                    },
                );
                bump(&mut t, chunk.max(5_000));
                self.attribute("concurrent-share", 2 * chunk);
            }
            self.push(t, a, pid_a, EventKind::Close { file: f });
            bump(&mut t, 2_000);
            self.push(t, b, pid_b, EventKind::Close { file: f });
            self.sizes.insert(f, rounds as u64 * chunk);
        }
    }

    /// A few process migrations per trace: Sprite flushes the migrating
    /// process's dirty files to the server (<1% of traffic in the paper).
    fn gen_migrations(&mut self) {
        if self.cfg.clients < 2 {
            return;
        }
        for _ in 0..3 {
            let c = ClientId(self.rng.gen_range(0..self.cfg.clients) as u32);
            let to = self.other_client(c);
            let pid = self.pid(c, Slot::Compile);
            let t = self.rand_time(0.25, 0.8);
            self.push(t, c, pid, EventKind::Migrate { to });
        }
    }

    fn other_client(&mut self, not: ClientId) -> ClientId {
        loop {
            let c = ClientId(self.rng.gen_range(0..self.cfg.clients) as u32);
            if c != not || self.cfg.clients == 1 {
                return c;
            }
        }
    }

    fn rand_time(&mut self, lo: f64, hi: f64) -> SimTime {
        let t = self.end.as_micros() as f64;
        SimTime::from_micros((t * self.rng.gen_range(lo..hi)) as u64)
    }
}

/// Advances `*t` by `micros`.
fn bump(t: &mut SimTime, micros: u64) {
    *t += SimDuration::from_micros(micros);
}

/// Log-normal size sample scaled by the config's volume factor and clamped.
fn scaled_size<R: Rng + ?Sized>(rng: &mut R, scale: f64, median: f64, sigma: f64, cap: u64) -> u64 {
    let raw = lognormal(rng, median * scale, sigma);
    (raw as u64).clamp(1024, cap)
}

/// Multiplies `base` by a uniform factor in `[1-spread, 1+spread]`.
fn jitter<R: Rng + ?Sized>(rng: &mut R, base: u64, spread: f64) -> u64 {
    let factor = 1.0 + spread * (2.0 * rng.gen::<f64>() - 1.0);
    (base as f64 * factor) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn generates_eight_traces() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        assert_eq!(set.traces().len(), TRACE_COUNT);
        for (i, t) in set.traces().iter().enumerate() {
            assert_eq!(t.number(), i + 1);
            assert!(!t.events().is_empty(), "trace {} is empty", i + 1);
            assert!(!t.ops().is_empty());
        }
    }

    #[test]
    fn traces_3_and_4_are_large() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        assert!(set.trace(2).is_large_file_workload());
        assert!(set.trace(3).is_large_file_workload());
        assert_eq!(set.typical().count(), 6);
        // Large traces move substantially more write bytes than typical ones.
        let large = set.trace(2).ops().app_write_bytes();
        let typical = set.trace(6).ops().app_write_bytes();
        assert!(
            large > typical * 2,
            "trace 3 wrote {large} bytes vs typical {typical}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let b = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for (ta, tb) in a.traces().iter().zip(b.traces()) {
            assert_eq!(ta.events(), tb.events());
        }
    }

    #[test]
    fn events_are_time_ordered() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for t in set.traces() {
            let mut last = SimTime::ZERO;
            for e in t.events() {
                assert!(e.time >= last);
                last = e.time;
            }
        }
    }

    #[test]
    fn events_stay_within_duration_with_slack() {
        let cfg = TraceSetConfig::tiny();
        let set = SpriteTraceSet::generate(&cfg);
        // Transfers may run slightly past the nominal end; allow 10% slack.
        let cap = SimTime::ZERO + cfg.duration() + SimDuration::from_secs(cfg.hours * 360);
        for t in set.traces() {
            assert!(t.ops().end_time() < cap);
        }
    }

    #[test]
    fn workload_contains_all_op_kinds() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let mut saw_write = false;
        let mut saw_read = false;
        let mut saw_delete = false;
        let mut saw_fsync = false;
        let mut saw_truncate = false;
        let mut saw_migrate = false;
        for t in set.traces() {
            for op in t.ops() {
                match op.kind {
                    OpKind::Write { .. } => saw_write = true,
                    OpKind::Read { .. } => saw_read = true,
                    OpKind::Delete { .. } => saw_delete = true,
                    OpKind::Fsync { .. } => saw_fsync = true,
                    OpKind::Truncate { .. } => saw_truncate = true,
                    OpKind::Migrate { .. } => saw_migrate = true,
                    _ => {}
                }
            }
        }
        assert!(saw_write && saw_read && saw_delete && saw_fsync && saw_truncate && saw_migrate);
    }

    #[test]
    fn manifest_accounts_for_every_written_byte() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for t in set.traces() {
            let manifest_total: u64 = t.manifest.values().sum();
            // Every write the generator emits is attributed to a class;
            // the op stream may exceed the manifest only by block-cursor
            // effects (there are none: both count event lengths).
            assert_eq!(
                manifest_total,
                t.ops().app_write_bytes(),
                "trace {} manifest {:?}",
                t.number(),
                t.manifest
            );
        }
    }

    /// Fraction of `t`'s written bytes attributed to `class` (0 if absent).
    fn class_fraction(t: &Trace, class: &str) -> f64 {
        let total: u64 = t.manifest.values().sum();
        t.manifest
            .get(class)
            .map_or(0.0, |&b| b as f64 / total as f64)
    }

    #[test]
    fn class_mix_matches_the_calibration_targets() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for t in set.typical() {
            // Short-lived compiler temporaries drive the ≤30 s deaths.
            let temps = class_fraction(t, "compile-temp");
            assert!(
                (0.10..=0.45).contains(&temps),
                "trace {}: temps {temps:.2}",
                t.number()
            );
            // Shared handoffs drive consistency callbacks.
            let shared = class_fraction(t, "shared-handoff");
            assert!(
                (0.03..=0.35).contains(&shared),
                "trace {}: shared {shared:.2}",
                t.number()
            );
            // Slow churn gives additional NVRAM megabytes something to do.
            assert!(
                class_fraction(t, "slow-churn") > 0.05,
                "trace {}",
                t.number()
            );
            // Concurrent write-sharing stays minuscule.
            assert!(
                class_fraction(t, "concurrent-share") < 0.02,
                "trace {}",
                t.number()
            );
            // No simulation output on typical days.
            assert_eq!(class_fraction(t, "sim-checkpoint"), 0.0);
        }
        for t in [set.trace(2), set.trace(3)] {
            // The large-file traces are dominated by checkpoint passes.
            assert!(
                class_fraction(t, "sim-checkpoint") > 0.5,
                "trace {}: {:?}",
                t.number(),
                t.manifest
            );
        }
    }

    #[test]
    fn reads_dominate_writes_on_typical_traces() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for t in set.typical() {
            let r = t.ops().app_read_bytes();
            let w = t.ops().app_write_bytes();
            assert!(r > w, "trace {}: reads {} writes {}", t.number(), r, w);
        }
    }
}
