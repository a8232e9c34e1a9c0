//! Differential test of [`NvLog`] against the log that keeps its NVRAM
//! image up to date on every call: the obvious implementation, which
//! re-encodes the whole image after each truncation or delete.
//!
//! Both logs are driven through seeded streams of appends, torn appends,
//! truncations, deletes and recoveries, including appends behind a tear
//! that no recovery has repaired yet. After every step the two must hold
//! the same NVRAM bytes, the same entries and give the same
//! `would_overflow` answers; every recovery must report the same
//! [`WalRecovery`].
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::framing::{decode_stream, encode_record};
use nvfs_types::{ByteRange, FileId, RangeSet, SimTime};

use super::{decode_payload, encode_payload, framed_bytes, NvLog, WalEntry, WalRecovery};

/// The reference log: `buf` is the NVRAM contents byte for byte, updated
/// by every call.
struct EagerLog {
    buf: Vec<u8>,
    entries: Vec<WalEntry>,
    next_seq: u64,
    capacity: u64,
}

impl EagerLog {
    fn new(capacity: u64) -> Self {
        EagerLog {
            buf: Vec::new(),
            entries: Vec::new(),
            next_seq: 0,
            capacity,
        }
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.entries.is_empty()
    }

    fn would_overflow(&self, ranges: &RangeSet) -> bool {
        let used: u64 = self
            .entries
            .iter()
            .map(|e| framed_bytes(e.data_bytes()))
            .sum();
        used + framed_bytes(ranges.len_bytes()) > self.capacity
    }

    fn append(&mut self, t: SimTime, file: FileId, ranges: &RangeSet) -> u64 {
        let seq = self.append_bytes(file, ranges);
        self.entries.push(WalEntry {
            seq,
            time: t,
            file,
            ranges: ranges.clone(),
        });
        seq
    }

    fn append_torn(&mut self, file: FileId, ranges: &RangeSet, fraction: f64) {
        let before = self.buf.len();
        self.append_bytes(file, ranges);
        let written = ((self.buf.len() - before) as f64 * fraction.clamp(0.0, 1.0)) as usize;
        self.buf.truncate(before + written);
        if self.buf.len() - before > 0 && written > 0 {
            self.buf.pop();
        }
    }

    fn append_bytes(&mut self, file: FileId, ranges: &RangeSet) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        encode_record(seq, &encode_payload(file, ranges), &mut self.buf);
        seq
    }

    fn recover(&mut self, t: SimTime) -> WalRecovery {
        let decoded = decode_stream(&self.buf);
        let truncated = self.buf.len() - decoded.valid_bytes;
        self.buf.truncate(decoded.valid_bytes);
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
        WalRecovery {
            replayed_records: self.entries.len() as u64,
            replayed_bytes: self.entries.iter().map(WalEntry::data_bytes).sum(),
            truncated_bytes: truncated as u64,
        }
    }

    fn truncate_through(&mut self, seq: u64) {
        let keep = self.entries.iter().position(|e| e.seq > seq);
        let dropped = match keep {
            Some(i) => i,
            None => self.entries.len(),
        };
        if dropped == 0 {
            return;
        }
        self.entries.drain(..dropped);
        self.rebuild_buf();
    }

    fn kill_file(&mut self, file: FileId) {
        if self.entries.iter().all(|e| e.file != file) {
            return;
        }
        for e in &mut self.entries {
            if e.file == file {
                e.ranges.clear();
            }
        }
        self.rebuild_buf();
    }

    fn rebuild_buf(&mut self) {
        self.buf.clear();
        for e in &self.entries {
            encode_record(e.seq, &encode_payload(e.file, &e.ranges), &mut self.buf);
        }
    }
}

/// One to three byte ranges of a file's first 64 KB; now and then none.
fn random_ranges(rng: &mut StdRng) -> RangeSet {
    let n = rng.gen_range(0..4usize);
    (0..n)
        .map(|_| ByteRange::at(rng.gen_range(0..(64u64 << 10)), rng.gen_range(1..20_000u64)))
        .collect()
}

/// Tear points: none written, a header's worth, mid-record, all of it,
/// past all of it, and anywhere.
fn random_fraction(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => 0.2,
        2 => 0.8,
        3 => 1.0,
        4 => 1.5,
        _ => rng.gen_range(0.0..1.0),
    }
}

/// Every query of the two logs must agree, the NVRAM image included.
fn assert_agree(log: &NvLog, reference: &EagerLog, probe: &RangeSet, ctx: &str) {
    assert_eq!(log.image(), reference.buf, "NVRAM image: {ctx}");
    assert_eq!(log.entries(), &reference.entries[..], "entries: {ctx}");
    assert_eq!(log.is_empty(), reference.is_empty(), "is_empty: {ctx}");
    assert_eq!(
        log.would_overflow(probe),
        reference.would_overflow(probe),
        "would_overflow: {ctx}"
    );
}

#[test]
fn lazy_image_matches_the_eager_log() {
    let mut rng = StdRng::seed_from_u64(0x57A1_0027);
    let (mut torn_recoveries, mut appends_behind_a_tear, mut overflows) = (0, 0, 0);
    for case in 0..200 {
        let capacity = rng.gen_range(1u64..(256 << 10));
        let mut log = NvLog::new(capacity);
        let mut reference = EagerLog::new(capacity);
        for step in 0..60 {
            let t = SimTime::from_micros(step * 1000);
            let file = FileId(rng.gen_range(0..6u32));
            let op = rng.gen_range(0..100u32);
            let ctx = format!("case {case} step {step} op {op}");
            match op {
                0..=44 => {
                    let ranges = random_ranges(&mut rng);
                    appends_behind_a_tear += u64::from(!log.torn.is_empty());
                    let seq = log.append(t, file, ranges.clone());
                    assert_eq!(seq, reference.append(t, file, &ranges), "{ctx}");
                }
                45..=59 => {
                    let ranges = random_ranges(&mut rng);
                    let fraction = random_fraction(&mut rng);
                    log.append_torn(file, &ranges, fraction);
                    reference.append_torn(file, &ranges, fraction);
                }
                60..=74 => {
                    let seq = rng.gen_range(0..reference.next_seq + 2);
                    log.truncate_through(t, seq);
                    reference.truncate_through(seq);
                }
                75..=84 => {
                    log.kill_file(file);
                    reference.kill_file(file);
                }
                _ => {
                    let out = log.recover(t);
                    assert_eq!(out, reference.recover(t), "recovery: {ctx}");
                    torn_recoveries += u64::from(out.truncated_bytes > 0);
                }
            }
            let probe = random_ranges(&mut rng);
            overflows += u64::from(reference.would_overflow(&probe));
            assert_agree(&log, &reference, &probe, &ctx);
        }
    }
    // The streams must reach the states that tell the logs apart.
    assert!(torn_recoveries > 100, "{torn_recoveries} torn recoveries");
    assert!(appends_behind_a_tear > 100, "{appends_behind_a_tear}");
    assert!(overflows > 500, "{overflows} overflowing probes");
}
