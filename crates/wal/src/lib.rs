//! # nvfs-wal — the NVRAM write-ahead log
//!
//! The paper's server-side use of NVRAM is a non-volatile *segment write
//! buffer* (§4): dirty data is staged page-at-a-time and whole segments
//! leave for disk. The follow-on literature converged on the alternative
//! this crate models — a transparent NVM write-ahead log in front of the
//! file system (NVLog, arXiv 2408.02911), with the two designs framed as
//! *logging vs. paging* NVMM caches (arXiv 2305.02244).
//!
//! [`NvLog`] is an append-only region of NVRAM holding checksummed,
//! sequence-numbered records in the shared [`nvfs_types::framing`] format.
//! Only recovery reads that byte image, so the log keeps its records as
//! entries and encodes the image when [`NvLog::recover`] decodes it; a torn
//! append is the one part kept as raw bytes. The commit protocol:
//!
//! 1. `fsync` encodes the file's dirty byte ranges into one record and
//!    appends it. The ack is returned as soon as the NVRAM copy finishes —
//!    a latency of [`append_latency_ns`], *not* a disk write.
//! 2. Segments are written back lazily by a background drain; the log is
//!    truncated through a record's sequence number only once the segment
//!    write carrying its bytes has completed ([`NvLog::truncate_through`]).
//! 3. After a crash, [`NvLog::recover`] rolls the log forward: the valid
//!    record prefix is replayed and the first torn or checksum-invalid
//!    record — necessarily un-acked — truncates the tail.
//!
//! Observability: appends and truncations emit `wal_append` /
//! `wal_truncate` events and count in plain fields, which
//! [`NvLog::publish`] adds to the `wal.*` counters once, when the log's
//! run ends; recoveries count `wal.recoveries` as they happen. All of it
//! is jobs-invariant.
//!
//! # Examples
//!
//! ```
//! use nvfs_types::{ByteRange, FileId, RangeSet, SimTime};
//! use nvfs_wal::NvLog;
//!
//! let mut log = NvLog::new(64 << 10);
//! let t = SimTime::from_micros(10);
//! let seq = log.append(t, FileId(3), RangeSet::from_range(ByteRange::new(0, 100)));
//! assert_eq!(seq, 0);
//! assert_eq!(log.entries().len(), 1);
//! // The segment carrying record 0 hit the disk: the log lets it go.
//! log.truncate_through(t, 0);
//! assert!(log.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

#[cfg(test)]
mod eager_reference;

use nvfs_types::framing::{decode_stream, encode_record, RECORD_HEADER_BYTES};
use nvfs_types::{ByteRange, FileId, RangeSet, SimTime};

/// NVRAM copy cost in nanoseconds per byte: a 100 ns Table 1 board access
/// moving one 4-byte word.
pub const NVRAM_NS_PER_BYTE: u64 = 25;

/// The simulated latency, in nanoseconds, of durably appending
/// `payload_bytes` of record payload (framing header included) into NVRAM.
pub fn append_latency_ns(payload_bytes: u64) -> u64 {
    (RECORD_HEADER_BYTES + payload_bytes) * NVRAM_NS_PER_BYTE
}

/// One acknowledged record in the log: the unit of the durability promise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The record's sequence number.
    pub seq: u64,
    /// When the append was acknowledged.
    pub time: SimTime,
    /// The file the record covers.
    pub file: FileId,
    /// The byte ranges promised durable by this record.
    pub ranges: RangeSet,
}

impl WalEntry {
    /// Payload data bytes the record promises (excludes framing).
    fn data_bytes(&self) -> u64 {
        self.ranges.len_bytes()
    }
}

/// What [`NvLog::recover`] found when rolling the log forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// Records that decoded intact and are ready to replay.
    replayed_records: u64,
    /// Promised data bytes across the replayed records.
    pub replayed_bytes: u64,
    /// Log bytes discarded because the tail record was torn or corrupt.
    pub truncated_bytes: u64,
}

/// The append-only NVRAM log.
///
/// `entries` are the acknowledged records, which also drive policy
/// decisions (drain age, truncation offsets). The NVRAM contents are those
/// records in the shared framing format, byte for byte, plus the bytes of
/// any torn append: written without an entry, they are exactly the state
/// [`NvLog::recover`] must repair. Recovery is the only reader of that
/// image, so it is encoded there and nowhere else.
#[derive(Debug, Clone)]
pub struct NvLog {
    entries: Vec<WalEntry>,
    /// Torn appends not yet repaired, oldest first: the bytes of each and
    /// how many of `entries` precede it in NVRAM. Records appended after a
    /// tear lie behind it. Entries only grow while a tear is kept, since
    /// truncating or deleting re-encodes the log without it.
    torn: Vec<(usize, Vec<u8>)>,
    /// Logical bytes the entries occupy (see [`NvLog::would_overflow`]).
    used: u64,
    next_seq: u64,
    capacity: u64,
    /// Counts for the `wal.*` counters, published by [`NvLog::publish`].
    appended: u64,
    append_bytes: u64,
    truncated_records: u64,
    truncated_bytes: u64,
}

/// Bytes one record occupies in the log for `payload_bytes` of payload.
fn framed_bytes(payload_bytes: u64) -> u64 {
    RECORD_HEADER_BYTES + payload_bytes
}

/// Encodes a record payload: `[file u32 LE][n u32 LE][(start, end) u64 LE]*`.
fn encode_payload(file: FileId, ranges: &RangeSet) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 16 * ranges.fragment_count());
    out.extend_from_slice(&file.0.to_le_bytes());
    out.extend_from_slice(&(ranges.fragment_count() as u32).to_le_bytes());
    for r in ranges.iter() {
        out.extend_from_slice(&r.start.to_le_bytes());
        out.extend_from_slice(&r.end.to_le_bytes());
    }
    out
}

/// Decodes a record payload written by [`encode_payload`]. Returns `None`
/// on structural mismatch (cannot happen for checksum-valid records).
fn decode_payload(payload: &[u8]) -> Option<(FileId, RangeSet)> {
    if payload.len() < 8 {
        return None;
    }
    let file = FileId(u32::from_le_bytes(payload[0..4].try_into().ok()?));
    let n = u32::from_le_bytes(payload[4..8].try_into().ok()?) as usize;
    if payload.len() != 8 + 16 * n {
        return None;
    }
    let mut ranges = RangeSet::new();
    for i in 0..n {
        let at = 8 + 16 * i;
        let start = u64::from_le_bytes(payload[at..at + 8].try_into().ok()?);
        let end = u64::from_le_bytes(payload[at + 8..at + 16].try_into().ok()?);
        ranges.insert(ByteRange::new(start, end));
    }
    Some((file, ranges))
}

impl NvLog {
    /// An empty log over `capacity` bytes of NVRAM.
    pub fn new(capacity: u64) -> Self {
        NvLog {
            entries: Vec::new(),
            torn: Vec::new(),
            used: 0,
            next_seq: 0,
            capacity,
            appended: 0,
            append_bytes: 0,
            truncated_records: 0,
            truncated_bytes: 0,
        }
    }

    /// Whether the log holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.torn.is_empty()
    }

    /// The acknowledged records still in the log, oldest first.
    pub fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Whether appending a record for `ranges` would exceed capacity — the
    /// caller must drain and truncate first (a synchronous drain, the WAL
    /// analogue of the write buffer's `NvramFull` flush).
    ///
    /// Each record counts its file's promised data bytes plus the framing
    /// header. (The simulation frames range *descriptors* rather than
    /// payload data, so the count comes from the promised ranges, not from
    /// the descriptor stream.)
    pub fn would_overflow(&self, ranges: &RangeSet) -> bool {
        self.used + framed_bytes(ranges.len_bytes()) > self.capacity
    }

    /// Durably appends one record and acknowledges it: from this moment
    /// every byte in `ranges` is promised to survive any crash. Returns the
    /// record's sequence number.
    pub fn append(&mut self, t: SimTime, file: FileId, ranges: RangeSet) -> u64 {
        let seq = self.next_seq;
        let bytes = ranges.len_bytes();
        self.next_seq += 1;
        self.used += framed_bytes(bytes);
        self.appended += 1;
        self.append_bytes += bytes;
        self.entries.push(WalEntry {
            seq,
            time: t,
            file,
            ranges,
        });
        nvfs_obs::event("wal_append", t.as_micros())
            .u64("seq", seq)
            .u64("file", file.0 as u64)
            .u64("bytes", bytes)
            .emit();
        seq
    }

    /// A crash interrupts the append after `fraction` of the framed record
    /// reached NVRAM. The fsync is never acknowledged — nothing is promised
    /// — and the torn bytes await [`NvLog::recover`].
    pub fn append_torn(&mut self, file: FileId, ranges: &RangeSet, fraction: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut bytes = Vec::new();
        encode_record(seq, &encode_payload(file, ranges), &mut bytes);
        let written = (bytes.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
        // The tear must actually tear: keep at least one byte missing so the
        // tail record can never pass its checksum.
        bytes.truncate(written.saturating_sub(1));
        if !bytes.is_empty() {
            self.torn.push((self.entries.len(), bytes));
        }
    }

    /// The NVRAM contents: every entry framed in sequence order, each torn
    /// append's bytes where that append began.
    fn image(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut torn = self.torn.iter().peekable();
        for (i, e) in self.entries.iter().enumerate() {
            while let Some((_, bytes)) = torn.next_if(|(at, _)| *at == i) {
                buf.extend_from_slice(bytes);
            }
            encode_record(e.seq, &encode_payload(e.file, &e.ranges), &mut buf);
        }
        for (_, bytes) in torn {
            buf.extend_from_slice(bytes);
        }
        buf
    }

    /// Rolls the log forward after a crash: decodes the valid record
    /// prefix of the NVRAM image, truncates the torn or corrupt tail, and
    /// rebuilds the entries so every surviving record is ready to replay
    /// (their append times are reset to `t`; replay happens now regardless
    /// of age).
    pub fn recover(&mut self, t: SimTime) -> WalRecovery {
        let image = self.image();
        let decoded = decode_stream(&image);
        let truncated = image.len() - decoded.valid_bytes;
        self.torn.clear();
        self.entries = decoded
            .records
            .iter()
            .filter_map(|r| {
                let (file, ranges) = decode_payload(&r.payload)?;
                Some(WalEntry {
                    seq: r.seq,
                    time: t,
                    file,
                    ranges,
                })
            })
            .collect();
        self.next_seq = self.entries.last().map_or(self.next_seq, |e| e.seq + 1);
        let out = WalRecovery {
            replayed_records: self.entries.len() as u64,
            replayed_bytes: self.entries.iter().map(WalEntry::data_bytes).sum(),
            truncated_bytes: truncated as u64,
        };
        self.used = out.replayed_records * RECORD_HEADER_BYTES + out.replayed_bytes;
        nvfs_obs::counter_add("wal.recoveries", 1);
        if out.truncated_bytes > 0 {
            nvfs_obs::counter_add("wal.recovered_torn_bytes", out.truncated_bytes);
        }
        out
    }

    /// Releases every record with sequence number `<= seq` — called only
    /// once the segment writes carrying those records' bytes have
    /// completed, which is the truncation invariant that makes the ack at
    /// append time safe.
    pub fn truncate_through(&mut self, t: SimTime, seq: u64) {
        let dropped = self
            .entries
            .iter()
            .position(|e| e.seq > seq)
            .unwrap_or(self.entries.len());
        if dropped == 0 {
            return;
        }
        let bytes: u64 = self.entries.drain(..dropped).map(|e| e.data_bytes()).sum();
        let records = dropped as u64;
        self.used -= records * RECORD_HEADER_BYTES + bytes;
        // NVRAM is rewritten from the surviving records: a tear goes too.
        self.torn.clear();
        self.truncated_records += records;
        self.truncated_bytes += bytes;
        nvfs_obs::event("wal_truncate", t.as_micros())
            .u64("through_seq", seq)
            .u64("records", records)
            .u64("bytes", bytes)
            .emit();
    }

    /// Adds this log's appends and truncations to the `wal.appended`,
    /// `wal.append_bytes`, `wal.truncated_records` and `wal.truncated_bytes`
    /// counters. Call it once, when the log's run ends.
    pub fn publish(&self) {
        nvfs_obs::counter_add("wal.appended", self.appended);
        nvfs_obs::counter_add("wal.append_bytes", self.append_bytes);
        nvfs_obs::counter_add("wal.truncated_records", self.truncated_records);
        nvfs_obs::counter_add("wal.truncated_bytes", self.truncated_bytes);
    }

    /// Drops `file`'s promised ranges from every record (the file was
    /// deleted; a later replay must not resurrect it). Records left with no
    /// ranges stay as sequence placeholders until truncated.
    pub fn kill_file(&mut self, file: FileId) {
        if self.entries.iter().all(|e| e.file != file) {
            return;
        }
        for e in &mut self.entries {
            if e.file == file {
                self.used -= e.data_bytes();
                e.ranges.clear();
            }
        }
        // NVRAM is rewritten from the surviving records: a tear goes too.
        self.torn.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(start: u64, end: u64) -> RangeSet {
        RangeSet::from_range(ByteRange::new(start, end))
    }

    #[test]
    fn append_truncate_round_trip() {
        let mut log = NvLog::new(1 << 16);
        let t = SimTime::from_micros(5);
        assert_eq!(log.append(t, FileId(1), rs(0, 100)), 0);
        assert_eq!(log.append(t, FileId(2), rs(0, 50)), 1);
        assert_eq!(log.entries().len(), 2);
        log.truncate_through(t, 0);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].seq, 1);
        log.truncate_through(t, 1);
        assert!(log.is_empty());
        // Sequence numbers keep climbing across truncation.
        assert_eq!(log.append(t, FileId(1), rs(0, 10)), 2);
    }

    #[test]
    fn recover_replays_acked_and_truncates_torn() {
        let mut log = NvLog::new(1 << 16);
        let t = SimTime::from_micros(9);
        log.append(t, FileId(1), rs(0, 4096));
        log.append_torn(FileId(2), &rs(0, 4096), 0.5);
        let out = log.recover(SimTime::from_micros(20));
        assert_eq!(out.replayed_records, 1);
        assert_eq!(out.replayed_bytes, 4096);
        assert!(out.truncated_bytes > 0);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].file, FileId(1));
        assert_eq!(log.used, framed_bytes(4096));
    }

    #[test]
    fn zero_fraction_tear_still_decodes_to_nothing_new() {
        let mut log = NvLog::new(1 << 16);
        log.append_torn(FileId(7), &rs(0, 64), 0.0);
        let out = log.recover(SimTime::ZERO);
        assert_eq!(out.replayed_records, 0);
        assert!(log.is_empty());
    }

    #[test]
    fn kill_file_empties_only_that_files_promises() {
        let mut log = NvLog::new(1 << 16);
        let t = SimTime::ZERO;
        log.append(t, FileId(1), rs(0, 100));
        log.append(t, FileId(2), rs(0, 200));
        log.kill_file(FileId(1));
        assert_eq!(log.entries()[0].data_bytes(), 0);
        assert_eq!(log.entries()[1].data_bytes(), 200);
        // The NVRAM image reflects the kill: recovery resurrects nothing.
        let out = log.recover(t);
        assert_eq!(out.replayed_bytes, 200);
    }

    #[test]
    fn overflow_check_accounts_for_framing() {
        let ranges = rs(0, 100);
        let mut log = NvLog::new(framed_bytes(100));
        assert!(!log.would_overflow(&ranges));
        log.append(SimTime::ZERO, FileId(1), ranges.clone());
        assert_eq!(log.used, framed_bytes(100));
        assert!(log.would_overflow(&ranges));
    }

    #[test]
    fn append_latency_scales_with_bytes() {
        assert_eq!(
            append_latency_ns(4096),
            (RECORD_HEADER_BYTES + 4096) * NVRAM_NS_PER_BYTE
        );
        assert!(append_latency_ns(0) < append_latency_ns(1 << 20));
    }
}
