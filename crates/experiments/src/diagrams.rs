//! Figures 1 and 7 — the paper's two architecture diagrams, rendered as
//! ASCII and backed by live data structures.
//!
//! These figures carry no measurements; we render them for completeness
//! and use real simulator state to label them, so the diagrams cannot
//! drift from the implementation.

use nvfs_core::{ClusterSim, SimConfig};
use nvfs_lfs::layout::SegmentCause;
use nvfs_lfs::{SegmentWriter, SEGMENT_BYTES};
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs_types::{ByteRange, FileId, RangeSet, SimTime};

/// Renders Figure 1: the write-aside and unified cache models.
///
/// The annotations are live numbers from a tiny simulation, so the diagram
/// always reflects actual model behaviour.
pub(crate) fn figure1() -> String {
    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let ops = traces.trace(0).ops();
    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(ops).run().stats;
    let wa = replay(SimConfig::write_aside(1 << 20, 512 << 10));
    let uni = replay(SimConfig::unified(1 << 20, 512 << 10));
    format!(
        r#"Figure 1: NVRAM cache models (annotated from a live tiny run)

      Write-aside model                      Unified model
   ┌───────────────────────┐          ┌───────────────────────┐
   │      Application      │          │      Application      │
   └──────────┬────────────┘          └──────────┬────────────┘
        writes│ (duplicated)               writes│ (to NVRAM only)
      ┌───────┴───────┐                          │
      ▼               ▼                          ▼
 ┌─────────┐    ┌──────────┐          ┌─────────┐    ┌──────────┐
 │ Volatile│    │  NVRAM   │          │ Volatile│◄──►│  NVRAM   │
 │  cache  │    │ (write-  │          │  cache  │demote │ dirty │
 │         │    │  only)   │          │ (clean) │promote│ +clean│
 └────┬────┘    └──────────┘          └────┬────┘    └────┬─────┘
      │ reads served here                  └──────┬───────┘
      ▼                                     reads │ served from either
 ┌──────────┐                                     ▼
 │  Server  │                               ┌──────────┐
 └──────────┘                               │  Server  │
      │                                     └──────────┘
      ▼                                          │
 ┌──────────┐                                    ▼
 │   Disk   │                               ┌──────────┐
 └──────────┘                               │   Disk   │
                                            └──────────┘
 NVRAM accesses: {:>8}              NVRAM accesses: {:>8}
 NVRAM reads:    {:>8}              NVRAM reads:    {:>8}
 bus bytes:      {:>8}              bus bytes:      {:>8}
"#,
        wa.nvram_accesses(),
        uni.nvram_accesses(),
        wa.nvram_reads,
        uni.nvram_reads,
        wa.bus_bytes,
        uni.bus_bytes,
    )
}

/// Renders Figure 7: LFS segment layout, built by actually writing files
/// through the segment writer (as the paper's figure narrates: file1 and
/// file2, then a block of file2 modified, file3 created, file1 extended).
pub(crate) fn figure7() -> String {
    let mut w = SegmentWriter::new(SEGMENT_BYTES);
    let chunk = |f: u32, bytes: u64| (FileId(f), RangeSet::from_range(ByteRange::new(0, bytes)));
    // (a) file1 and file2 written.
    w.write_all(
        SimTime::from_secs(1),
        &vec![chunk(1, 12 << 10), chunk(2, 12 << 10)],
        SegmentCause::Timeout,
    );
    // (b) middle block of file2 modified; file3 created; file1 extended.
    w.write_all(
        SimTime::from_secs(2),
        &vec![
            (FileId(2), RangeSet::from_range(ByteRange::at(4096, 4096))),
            chunk(3, 8 << 10),
            (
                FileId(1),
                RangeSet::from_range(ByteRange::at(12 << 10, 8 << 10)),
            ),
        ],
        SegmentCause::Timeout,
    );
    let mut out = String::from(
        "Figure 7: a log-structured file system (built live through the segment writer)\n\n",
    );
    for r in w.records() {
        out.push_str(&format!(
            "  SEGMENT {}: [{} data blocks from {} file(s)][{} metadata block(s)][summary {}B]  cause: {:?}\n",
            r.id,
            r.data_bytes / 4096,
            r.file_count,
            r.metadata_bytes() / 4096,
            nvfs_lfs::layout::SUMMARY_BYTES,
            r.cause,
        ));
    }
    out.push_str(&format!(
        "\n  live bytes after the rewrites: {} KB (old copies are dead, awaiting the cleaner)\n",
        w.usage().total_live_bytes() / 1024,
    ));
    w.publish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reflects_model_behaviour() {
        let d = figure1();
        assert!(d.contains("Write-aside model"));
        assert!(d.contains("Unified model"));
        // The annotation encodes the §2.6 claims: write-aside NVRAM is
        // write-only.
        assert!(d.contains("NVRAM reads:           0"), "{d}");
    }

    #[test]
    fn figure7_shows_two_segments_with_metadata() {
        let d = figure7();
        assert!(d.contains("SEGMENT 0"));
        assert!(d.contains("SEGMENT 1"));
        assert!(d.contains("metadata block"));
        assert!(d.contains("live bytes"));
    }
}
