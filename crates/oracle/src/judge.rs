//! Diffing recovered state against the shadow model into typed verdicts.

use std::collections::BTreeMap;
use std::fmt;

use nvfs_types::{ByteRange, ClientId, FileId, RangeSet, SimTime};

use crate::shadow::{intersect, union_into, DrainExpectation, DurableMap, DurablePromise};

/// One typed finding about a crash's recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The recovered state matched the durability contract exactly.
    Clean,
    /// A byte range the model promised to keep did not survive recovery.
    LostDurable {
        /// File the promised range belongs to.
        file: FileId,
        /// The promised range (or part of it) that is missing.
        range: ByteRange,
    },
    /// Recovery produced a byte range that was never promised — fabricated
    /// data, e.g. drained from a board whose batteries had died.
    Resurrected {
        /// File the fabricated range was attributed to.
        file: FileId,
        /// The range that should not exist.
        range: ByteRange,
    },
    /// The same crash's drain was applied more than once.
    DoubleReplay {
        /// File whose range was replayed again.
        file: FileId,
        /// The overlap between this replay and an earlier one of the same
        /// crash.
        range: ByteRange,
    },
}

impl Verdict {
    /// Short static label, also used for the `oracle_verdict` event.
    fn label(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::LostDurable { .. } => "lost_durable",
            Verdict::Resurrected { .. } => "resurrected",
            Verdict::DoubleReplay { .. } => "double_replay",
        }
    }

    /// Whether this verdict is an invariant violation.
    fn is_violation(&self) -> bool {
        match self {
            Verdict::Clean => false,
            Verdict::LostDurable { .. }
            | Verdict::Resurrected { .. }
            | Verdict::DoubleReplay { .. } => true,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Clean => write!(f, "Clean"),
            Verdict::LostDurable { file, range } => {
                write!(
                    f,
                    "LostDurable {{ {file}, [{}, {}) }}",
                    range.start, range.end
                )
            }
            Verdict::Resurrected { file, range } => {
                write!(
                    f,
                    "Resurrected {{ {file}, [{}, {}) }}",
                    range.start, range.end
                )
            }
            Verdict::DoubleReplay { file, range } => {
                write!(
                    f,
                    "DoubleReplay {{ {file}, [{}, {}) }}",
                    range.start, range.end
                )
            }
        }
    }
}

/// The oracle's full judgement of one crash + recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// The client that crashed.
    pub client: ClientId,
    /// When the crash fired.
    pub at: SimTime,
    /// Bytes the cache model promised to keep.
    promised_bytes: u64,
    /// Bytes a correct recovery must return under the injected conditions.
    expected_bytes: u64,
    /// Bytes the recovery actually returned.
    observed_bytes: u64,
    /// Every finding; a single [`Verdict::Clean`] when nothing is wrong.
    pub verdicts: Vec<Verdict>,
}

impl CrashReport {
    /// Whether recovery honoured the contract exactly.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| !v.is_violation())
    }
}

/// Running totals over many judged crash points — mergeable so a
/// `par_map` sweep can fold per-task summaries deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleSummary {
    /// Crash points judged.
    pub crash_points: u64,
    /// Crash points whose recovery was exactly correct.
    pub clean: u64,
    /// `LostDurable` findings.
    pub lost_durable: u64,
    /// `Resurrected` findings.
    pub resurrected: u64,
    /// `DoubleReplay` findings.
    pub double_replay: u64,
    /// Always zero, like `silent_corruption` and `repaired`: no judge
    /// issues a corruption finding (the corruption hook books corrupt
    /// bytes in `nvfs_core::ScrubReport`). The three stay so this
    /// struct's `Debug` form, which recorded benchmark digests fold in,
    /// does not change.
    corrupted: u64,
    /// Always zero (see `corrupted`).
    silent_corruption: u64,
    /// Always zero (see `corrupted`).
    repaired: u64,
    /// Total bytes the shadow model expected to survive.
    pub bytes_expected: u64,
    /// Total bytes recoveries actually produced.
    pub bytes_observed: u64,
}

impl OracleSummary {
    /// Total invariant violations.
    pub fn violations(&self) -> u64 {
        self.lost_durable + self.resurrected + self.double_replay
    }

    /// One-line machine-readable verdict (stable key order) — what
    /// `nvfs faults --oracle` prints and CI parses.
    pub fn verdict_json(&self, seed: u64) -> String {
        format!(
            concat!(
                "{{\"oracle\":\"{}\",\"seed\":{},\"crash_points\":{},\"clean\":{},",
                "\"lost_durable\":{},\"resurrected\":{},\"double_replay\":{}}}"
            ),
            if self.violations() == 0 {
                "clean"
            } else {
                "violated"
            },
            seed,
            self.crash_points,
            self.clean,
            self.lost_durable,
            self.resurrected,
            self.double_replay,
        )
    }

    /// Folds `other` into `self` (order-independent).
    pub fn merge(&mut self, other: &OracleSummary) {
        self.crash_points += other.crash_points;
        self.clean += other.clean;
        self.lost_durable += other.lost_durable;
        self.resurrected += other.resurrected;
        self.double_replay += other.double_replay;
        self.bytes_expected += other.bytes_expected;
        self.bytes_observed += other.bytes_observed;
    }

    /// Absorbs one judged crash report.
    fn absorb(&mut self, report: &CrashReport) {
        self.crash_points += 1;
        if report.is_clean() {
            self.clean += 1;
        }
        for v in &report.verdicts {
            match v {
                Verdict::Clean => {}
                Verdict::LostDurable { .. } => self.lost_durable += 1,
                Verdict::Resurrected { .. } => self.resurrected += 1,
                Verdict::DoubleReplay { .. } => self.double_replay += 1,
            }
        }
        self.bytes_expected += report.expected_bytes;
        self.bytes_observed += report.observed_bytes;
    }
}

/// The stateful judge: feed it one `(promise, expectation, observed)`
/// triple per recovered crash and it produces `CrashReport`s, tracking
/// earlier replays of the same crash so double application is caught.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    /// What has already been replayed for each crash incident, keyed by
    /// (client, crash time) — one client cannot crash twice at the same
    /// instant, so the pair identifies the incident.
    replayed: BTreeMap<(ClientId, SimTime), DurableMap>,
    reports: Vec<CrashReport>,
}

impl Oracle {
    /// A fresh oracle with no judged crashes.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Judges one recovered crash: diffs `observed` against what the
    /// shadow model says must have survived. Emits an `oracle_verdict`
    /// event and bumps `oracle.*` counters; the report is also retained
    /// (see [`reports`](Oracle::reports)).
    pub fn judge(
        &mut self,
        promise: &DurablePromise,
        expect: DrainExpectation,
        observed: &DurableMap,
    ) -> &CrashReport {
        let expected = expect.expected(promise);
        let mut verdicts = Vec::new();

        // Promised-but-missing → LostDurable.
        for (file, range) in subtract(&expected, observed) {
            verdicts.push(Verdict::LostDurable { file, range });
        }
        // Observed-but-never-promised → Resurrected.
        for (file, range) in subtract(observed, &expected) {
            verdicts.push(Verdict::Resurrected { file, range });
        }
        // Overlap with an earlier replay of the same incident → DoubleReplay.
        let incident = (promise.client, promise.captured_at);
        if let Some(prior) = self.replayed.get(&incident) {
            for (file, range) in intersect(observed, prior) {
                verdicts.push(Verdict::DoubleReplay { file, range });
            }
        }
        let slot = self.replayed.entry(incident).or_default();
        union_into(slot, observed);

        if verdicts.is_empty() {
            verdicts.push(Verdict::Clean);
        }
        let report = CrashReport {
            client: promise.client,
            at: promise.captured_at,
            promised_bytes: promise.bytes(),
            expected_bytes: expected.values().map(RangeSet::len_bytes).sum(),
            observed_bytes: observed.values().map(RangeSet::len_bytes).sum(),
            verdicts,
        };
        emit_obs(&report);
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// Every judged crash, in judgement order.
    pub fn reports(&self) -> &[CrashReport] {
        &self.reports
    }

    /// Summarises every judged crash.
    pub fn summary(&self) -> OracleSummary {
        let mut s = OracleSummary::default();
        for r in &self.reports {
            s.absorb(r);
        }
        s
    }
}

fn emit_obs(report: &CrashReport) {
    nvfs_obs::counter_add("oracle.crashes_judged", 1);
    nvfs_obs::counter_add("oracle.bytes_expected", report.expected_bytes);
    nvfs_obs::counter_add("oracle.bytes_observed", report.observed_bytes);
    let worst = report
        .verdicts
        .iter()
        .find(|v| v.is_violation())
        .unwrap_or(&Verdict::Clean);
    match worst {
        Verdict::Clean => nvfs_obs::counter_add("oracle.verdicts_clean", 1),
        Verdict::LostDurable { .. } => nvfs_obs::counter_add("oracle.verdicts_lost_durable", 1),
        Verdict::Resurrected { .. } => nvfs_obs::counter_add("oracle.verdicts_resurrected", 1),
        Verdict::DoubleReplay { .. } => nvfs_obs::counter_add("oracle.verdicts_double_replay", 1),
    }
    nvfs_obs::event("oracle_verdict", report.at.as_micros())
        .u64("client", report.client.0 as u64)
        .str("verdict", worst.label())
        .u64("promised_bytes", report.promised_bytes)
        .u64("expected_bytes", report.expected_bytes)
        .u64("observed_bytes", report.observed_bytes)
        .u64(
            "violations",
            report.verdicts.iter().filter(|v| v.is_violation()).count() as u64,
        )
        .emit();
}

/// Ranges present in `a` but not in `b`, per file, in deterministic order.
fn subtract(a: &DurableMap, b: &DurableMap) -> Vec<(FileId, ByteRange)> {
    let mut out = Vec::new();
    for (file, set) in a {
        let mut remaining = set.clone();
        if let Some(other) = b.get(file) {
            for r in other.iter() {
                remaining.remove(r);
            }
        }
        for r in remaining.iter() {
            out.push((*file, r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_types::BLOCK_SIZE;

    fn map(entries: &[(u32, u64, u64)]) -> DurableMap {
        let mut m = DurableMap::new();
        for &(file, start, end) in entries {
            m.entry(FileId(file))
                .or_default()
                .insert(ByteRange::new(start, end));
        }
        m
    }

    fn promise(entries: &[(u32, u64, u64)]) -> DurablePromise {
        DurablePromise {
            client: ClientId(1),
            captured_at: SimTime::from_secs(10),
            ranges: map(entries),
        }
    }

    #[test]
    fn faithful_recovery_is_clean() {
        let p = promise(&[(1, 0, BLOCK_SIZE), (2, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        let r = o.judge(&p, DrainExpectation::full(), &p.ranges.clone());
        assert!(r.is_clean());
        assert_eq!(r.verdicts, vec![Verdict::Clean]);
        assert_eq!(o.summary().clean, 1);
        assert_eq!(o.summary().violations(), 0);
    }

    #[test]
    fn dropped_file_is_lost_durable() {
        let p = promise(&[(1, 0, BLOCK_SIZE), (2, 0, BLOCK_SIZE)]);
        let observed = map(&[(1, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        let r = o.judge(&p, DrainExpectation::full(), &observed).clone();
        assert!(!r.is_clean());
        assert_eq!(
            r.verdicts,
            vec![Verdict::LostDurable {
                file: FileId(2),
                range: ByteRange::new(0, BLOCK_SIZE),
            }]
        );
        assert_eq!(o.summary().lost_durable, 1);
    }

    #[test]
    fn fabricated_range_is_resurrected() {
        let p = promise(&[(1, 0, BLOCK_SIZE)]);
        let observed = map(&[(1, 0, BLOCK_SIZE), (9, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        let r = o.judge(&p, DrainExpectation::full(), &observed).clone();
        assert_eq!(
            r.verdicts,
            vec![Verdict::Resurrected {
                file: FileId(9),
                range: ByteRange::new(0, BLOCK_SIZE),
            }]
        );
    }

    #[test]
    fn dead_board_must_return_nothing() {
        let p = promise(&[(1, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        // Returning the data anyway — from a board that lost power — is
        // fabrication, not heroism.
        let r = o
            .judge(&p, DrainExpectation::dead(), &p.ranges.clone())
            .clone();
        assert_eq!(
            r.verdicts,
            vec![Verdict::Resurrected {
                file: FileId(1),
                range: ByteRange::new(0, BLOCK_SIZE),
            }]
        );
        let clean = o.judge(&p, DrainExpectation::dead(), &DurableMap::new());
        // An empty observation can no longer double-replay anything.
        assert!(clean.is_clean());
    }

    #[test]
    fn same_incident_replayed_twice_is_double_replay() {
        let p = promise(&[(1, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        assert!(o
            .judge(&p, DrainExpectation::full(), &p.ranges.clone())
            .is_clean());
        let r = o
            .judge(&p, DrainExpectation::full(), &p.ranges.clone())
            .clone();
        assert_eq!(
            r.verdicts,
            vec![Verdict::DoubleReplay {
                file: FileId(1),
                range: ByteRange::new(0, BLOCK_SIZE),
            }]
        );
    }

    #[test]
    fn distinct_incidents_do_not_collide() {
        let mut a = promise(&[(1, 0, BLOCK_SIZE)]);
        let mut o = Oracle::new();
        assert!(o
            .judge(&a, DrainExpectation::full(), &a.ranges.clone())
            .is_clean());
        // The client re-dirties the same range and crashes again later:
        // a fresh incident, legitimately replaying the same bytes.
        a.captured_at = SimTime::from_secs(20);
        assert!(o
            .judge(&a, DrainExpectation::full(), &a.ranges.clone())
            .is_clean());
    }

    #[test]
    fn torn_expectation_flags_over_delivery() {
        let p = promise(&[(1, 0, 2 * BLOCK_SIZE)]);
        // The drain was injected to cut after one block, but recovery
        // returned both — it delivered bytes the schedule says it cannot
        // have drained.
        let mut o = Oracle::new();
        let r = o
            .judge(
                &p,
                DrainExpectation {
                    board_dead: false,
                    max_bytes: BLOCK_SIZE,
                },
                &p.ranges.clone(),
            )
            .clone();
        assert_eq!(
            r.verdicts,
            vec![Verdict::Resurrected {
                file: FileId(1),
                range: ByteRange::new(BLOCK_SIZE, 2 * BLOCK_SIZE),
            }]
        );
    }

    #[test]
    fn summary_merge_is_order_independent() {
        let p = promise(&[(1, 0, BLOCK_SIZE)]);
        let mut o1 = Oracle::new();
        o1.judge(&p, DrainExpectation::full(), &p.ranges.clone());
        let mut o2 = Oracle::new();
        o2.judge(&p, DrainExpectation::full(), &DurableMap::new());
        let (s1, s2) = (o1.summary(), o2.summary());
        let mut ab = s1;
        ab.merge(&s2);
        let mut ba = s2;
        ba.merge(&s1);
        assert_eq!(ab, ba);
        assert_eq!(ab.crash_points, 2);
        assert_eq!(ab.clean, 1);
        assert_eq!(ab.lost_durable, 1);
        // The pinned verdict line: clean when nothing violates, violated
        // once a finding does.
        assert!(ab.verdict_json(42).starts_with("{\"oracle\":\"violated\""));
        assert_eq!(
            OracleSummary::default().verdict_json(42),
            "{\"oracle\":\"clean\",\"seed\":42,\"crash_points\":0,\"clean\":0,\
             \"lost_durable\":0,\"resurrected\":0,\"double_replay\":0}"
        );
        // Recorded benchmark digests fold in the summary's `Debug` form.
        assert_eq!(
            format!("{:?}", OracleSummary::default()),
            "OracleSummary { crash_points: 0, clean: 0, lost_durable: 0, resurrected: 0, \
             double_replay: 0, corrupted: 0, silent_corruption: 0, repaired: 0, \
             bytes_expected: 0, bytes_observed: 0 }"
        );
    }

    #[test]
    fn verdict_display_names_the_range() {
        let v = Verdict::LostDurable {
            file: FileId(7),
            range: ByteRange::new(0, 4096),
        };
        let s = v.to_string();
        assert!(s.contains("LostDurable"), "{s}");
        assert!(s.contains("[0, 4096)"), "{s}");
    }
}
