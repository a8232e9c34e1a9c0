//! Checksummed record framing shared by the LFS segment summaries and the
//! NVRAM write-ahead log.
//!
//! Two layers live here:
//!
//! * [`Fnv64`] — the workspace's one 64-bit FNV-1a hasher. It produces
//!   the segment summary-block checksum, the WAL record checksum, and the
//!   CLI's config digests and `nvfs bench` artifact gate.
//! * [`encode_record`] / [`decode_stream`] — the sequence-numbered,
//!   length-prefixed, checksummed record framing the WAL appends to
//!   NVRAM. The framing's contract is the roll-forward invariant: decoding
//!   any torn byte prefix of a framed stream yields exactly the records
//!   that were fully written and whose checksums survive, in order, and
//!   nothing after the first record that was not.
//!
//! # Examples
//!
//! ```
//! use nvfs_types::framing::{decode_stream, encode_record};
//!
//! let mut buf = Vec::new();
//! encode_record(0, b"0:0:4096", &mut buf);
//! encode_record(1, b"2:0:512", &mut buf);
//! let whole = decode_stream(&buf);
//! assert_eq!(whole.records.len(), 2);
//! // A tear inside the second record leaves exactly the first decodable.
//! let torn = decode_stream(&buf[..buf.len() - 1]);
//! assert_eq!(torn.records.len(), 1);
//! assert_eq!(torn.records[0].seq, 0);
//! ```

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes of framing per record: sequence number (8), payload length (4),
/// checksum (8).
pub const RECORD_HEADER_BYTES: u64 = 20;

/// Incremental 64-bit FNV-1a hasher (xor-then-multiply per byte).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the hash.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds the UTF-8 bytes of `text` into the hash.
    pub fn update(&mut self, text: &str) {
        self.update_bytes(text.as_bytes());
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One record recovered from a framed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedRecord {
    /// The sequence number the record was framed with.
    pub seq: u64,
    /// The payload bytes, verbatim.
    pub payload: Vec<u8>,
}

/// The result of decoding a (possibly torn) framed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedStream {
    /// Every record that decoded intact, in stream order.
    pub records: Vec<FramedRecord>,
    /// Length in bytes of the valid prefix the records came from. Bytes at
    /// and beyond this offset belong to a torn or corrupt record.
    pub valid_bytes: usize,
}

/// The checksum stored in a record's frame: FNV-1a over the sequence
/// number (little-endian) followed by the payload, so neither can be
/// swapped or truncated undetected.
fn record_checksum(seq: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update_bytes(&seq.to_le_bytes());
    h.update_bytes(payload);
    h.value()
}

/// Appends one framed record to `out`:
/// `[seq: u64 LE][len: u32 LE][checksum: u64 LE][payload]`.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn encode_record(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("payload too large to frame");
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&record_checksum(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes records from the front of `buf` until the first record that is
/// incomplete (torn frame or payload) or fails its checksum. The returned
/// [`DecodedStream::valid_bytes`] is the roll-forward truncation point.
pub fn decode_stream(buf: &[u8]) -> DecodedStream {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let header = RECORD_HEADER_BYTES as usize;
        if buf.len() - at < header {
            break;
        }
        let seq = u64::from_le_bytes(buf[at..at + 8].try_into().expect("sized"));
        let len = u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("sized")) as usize;
        let stored = u64::from_le_bytes(buf[at + 12..at + 20].try_into().expect("sized"));
        if buf.len() - at - header < len {
            break;
        }
        let payload = &buf[at + header..at + header + len];
        if record_checksum(seq, payload) != stored {
            break;
        }
        records.push(FramedRecord {
            seq,
            payload: payload.to_vec(),
        });
        at += header + len;
    }
    DecodedStream {
        records,
        valid_bytes: at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        // Every summary checksum, WAL record and config digest in the
        // goldens rests on these bytes.
        let of = |s: &str| {
            let mut h = Fnv64::new();
            h.update(s);
            h.value()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn update_is_chunking_invariant() {
        let mut a = Fnv64::new();
        a.update("hello world");
        let mut b = Fnv64::new();
        b.update("hello ");
        b.update_bytes(b"world");
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn round_trip_decodes_every_record() {
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; i as usize * 3]).collect();
        for (i, p) in payloads.iter().enumerate() {
            encode_record(i as u64, p, &mut buf);
        }
        let out = decode_stream(&buf);
        assert_eq!(out.valid_bytes, buf.len());
        assert_eq!(out.records.len(), payloads.len());
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.payload, payloads[i]);
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_that_record() {
        let mut buf = Vec::new();
        encode_record(0, b"aaaa", &mut buf);
        let second_at = buf.len();
        encode_record(1, b"bbbb", &mut buf);
        encode_record(2, b"cccc", &mut buf);
        // Flip one payload byte of record 1: its checksum dies, and
        // everything from it onward is truncated — valid-prefix semantics,
        // not a sieve.
        buf[second_at + RECORD_HEADER_BYTES as usize] ^= 0xff;
        let out = decode_stream(&buf);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].seq, 0);
        assert_eq!(out.valid_bytes, second_at);
    }

    /// Deterministic xorshift64* for the property test (the crate has no
    /// RNG dependency).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn every_torn_prefix_decodes_to_the_surviving_records() {
        // The satellite property: for ANY tear point, decoding returns
        // exactly the records that were fully written before the tear.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut buf = Vec::new();
        let mut ends = Vec::new(); // byte offset at which record i ends
        for seq in 0..24u64 {
            let len = (rng.next() % 40) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            encode_record(seq, &payload, &mut buf);
            ends.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let out = decode_stream(&buf[..cut]);
            let survivors = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(out.records.len(), survivors, "cut at {cut}");
            assert_eq!(
                out.valid_bytes,
                if survivors == 0 {
                    0
                } else {
                    ends[survivors - 1]
                },
                "cut at {cut}"
            );
            for (i, r) in out.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64, "cut at {cut}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_truncates_at_the_damaged_record() {
        // The corruption property: flipping ANY single bit of a framed
        // stream never panics the decoder and never yields a damaged
        // record — decode returns exactly the intact records before the
        // one containing the flipped bit. (A flip in a length field may
        // masquerade as a tear; the checksum still refuses to let a
        // damaged payload through.)
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        let mut originals = Vec::new();
        for seq in 0..12u64 {
            let len = (rng.next() % 32) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            encode_record(seq, &payload, &mut buf);
            ends.push(buf.len());
            originals.push(FramedRecord { seq, payload });
        }
        for bit in 0..buf.len() * 8 {
            let byte = bit / 8;
            buf[byte] ^= 1 << (bit % 8);
            let out = decode_stream(&buf);
            // The record containing the flipped byte is the first whose
            // end lies beyond it; everything before decodes verbatim.
            let damaged = ends.iter().filter(|&&e| e <= byte).count();
            assert_eq!(out.records, originals[..damaged], "bit {bit} (byte {byte})");
            assert_eq!(
                out.valid_bytes,
                if damaged == 0 { 0 } else { ends[damaged - 1] },
                "bit {bit} (byte {byte})"
            );
            buf[byte] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn empty_and_header_only_streams_decode_to_nothing() {
        assert_eq!(decode_stream(&[]).records.len(), 0);
        let mut buf = Vec::new();
        encode_record(7, b"xy", &mut buf);
        let torn = decode_stream(&buf[..RECORD_HEADER_BYTES as usize]);
        assert!(torn.records.is_empty());
        assert_eq!(torn.valid_bytes, 0);
    }
}
