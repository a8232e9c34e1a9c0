//! NVRAM write-protection modes and their access costs.
//!
//! The paper weighs write-protecting the NVRAM cache against its
//! access-cost penalty (§2.3): battery-backed RAM survives power loss,
//! but a stray kernel write or media decay corrupts it as easily as any
//! other RAM. This module supplies the defensive lever,
//! [`ProtectionMode`], and its Table-1 cost arithmetic. The three modes:
//! `Unprotected` (fast, blind), `WriteProtected` (the board is kept
//! read-only except inside a short window around each legitimate write,
//! shrinking the stray-write vulnerability to open windows only), and
//! `Verified` (per-block checksums are recomputed on every read-back and
//! recovery drain, so corrupt data is *detected* before it can
//! masquerade as good). The corruption hook models a checksum mismatch
//! on its own corrupt-byte ledger; this module prices the hashing.
//!
//! Costs use the Table-1 arithmetic established for the WAL study:
//! byte-counted NVRAM work at [`NVRAM_NS_PER_BYTE`]. Toggling the
//! board's protection register costs `PROTECT_TOGGLE_BYTES` each way.

use std::fmt;
use std::str::FromStr;

use nvfs_types::BLOCK_SIZE;

/// NVRAM access cost per byte, Table-1 arithmetic (40 MB/s ⇒ 25 ns/B).
pub const NVRAM_NS_PER_BYTE: u64 = 25;

/// Bytes of register traffic per protect/unprotect toggle (one control
/// word each way).
const PROTECT_TOGGLE_BYTES: u64 = 8;

/// How the NVRAM cache defends itself against stray writes and decay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ProtectionMode {
    /// No defense: every corruption lands, none is detected outside the
    /// background scrub.
    #[default]
    Unprotected,
    /// The board is write-protected except inside a short window after
    /// each legitimate write ([`protect_window_micros`]); stray writes
    /// outside open windows bounce off the protection hardware.
    /// Bit flips and decay are physical and bypass protection.
    WriteProtected,
    /// Per-block checksums are verified on every read-back and recovery
    /// drain: corruption still lands, but is always *detected* before
    /// the damaged bytes can pass as good data.
    Verified,
}

impl ProtectionMode {
    /// Every mode, cheapest first.
    pub const ALL: [ProtectionMode; 3] = [
        ProtectionMode::Unprotected,
        ProtectionMode::WriteProtected,
        ProtectionMode::Verified,
    ];

    /// Short static label for reports and events.
    pub fn label(&self) -> &'static str {
        match self {
            ProtectionMode::Unprotected => "unprotected",
            ProtectionMode::WriteProtected => "write-protect",
            ProtectionMode::Verified => "verified",
        }
    }

    /// Whether read-back/drain checksum verification is on.
    pub fn verifies_reads(&self) -> bool {
        matches!(self, ProtectionMode::Verified)
    }

    /// Whether stray writes outside an open window bounce.
    pub fn bounces_stray_writes(&self) -> bool {
        matches!(self, ProtectionMode::WriteProtected)
    }
}

impl fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ProtectionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unprotected" => Ok(ProtectionMode::Unprotected),
            "write-protect" => Ok(ProtectionMode::WriteProtected),
            "verified" => Ok(ProtectionMode::Verified),
            other => Err(format!(
                "unknown protection mode {other:?} (unprotected|write-protect|verified)"
            )),
        }
    }
}

/// Length of the open (writable) window after a legitimate write under
/// [`ProtectionMode::WriteProtected`]: unprotect, write one block,
/// re-protect, all at Table-1 byte rates, rounded up to a microsecond.
pub const fn protect_window_micros() -> u64 {
    ((2 * PROTECT_TOGGLE_BYTES + BLOCK_SIZE) * NVRAM_NS_PER_BYTE).div_ceil(1000)
}

/// Protect/unprotect toggle overhead for `nvram_writes` block writes:
/// two register touches per write at byte rates.
pub const fn write_protect_overhead_ns(nvram_writes: u64) -> u64 {
    nvram_writes * 2 * PROTECT_TOGGLE_BYTES * NVRAM_NS_PER_BYTE
}

/// Checksum-verification overhead for `verified_bytes` of read-back
/// traffic: every verified byte is touched once more by the hasher.
pub const fn verify_overhead_ns(verified_bytes: u64) -> u64 {
    verified_bytes * NVRAM_NS_PER_BYTE
}

/// Background-scrub overhead for `blocks_scanned` whole-block reads.
pub const fn scrub_overhead_ns(blocks_scanned: u64) -> u64 {
    blocks_scanned * BLOCK_SIZE * NVRAM_NS_PER_BYTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip() {
        for mode in ProtectionMode::ALL {
            assert_eq!(mode.label().parse::<ProtectionMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(ProtectionMode::default(), ProtectionMode::Unprotected);
        let err = "armored".parse::<ProtectionMode>().unwrap_err();
        assert!(err.contains("unprotected|write-protect|verified"), "{err}");
    }

    #[test]
    fn mode_capabilities_partition_the_lattice() {
        assert!(!ProtectionMode::Unprotected.bounces_stray_writes());
        assert!(!ProtectionMode::Unprotected.verifies_reads());
        assert!(ProtectionMode::WriteProtected.bounces_stray_writes());
        assert!(!ProtectionMode::WriteProtected.verifies_reads());
        assert!(!ProtectionMode::Verified.bounces_stray_writes());
        assert!(ProtectionMode::Verified.verifies_reads());
    }

    #[test]
    fn cost_arithmetic_matches_table_one() {
        // (2 toggles × 8 B + one 4 KB block) × 25 ns = 102.8 µs → 103 µs.
        assert_eq!(protect_window_micros(), 103);
        assert_eq!(write_protect_overhead_ns(1), 400);
        assert_eq!(verify_overhead_ns(BLOCK_SIZE), 102_400);
        assert_eq!(scrub_overhead_ns(1), BLOCK_SIZE * NVRAM_NS_PER_BYTE);
    }
}
