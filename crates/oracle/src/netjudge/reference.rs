//! Differential test of [`NetJudge`]'s dense per-client tables against
//! the judge that keeps ordered sets keyed by `(client, request id)`.
//!
//! Both judges are fed seeded transcripts with sparse client and request
//! ids, repeated applies, acks without applies and deliveries inside
//! partitions. After every event the two must finish with the same
//! [`NetSummary`] and the same verdicts, in the same order.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{ClientId, SimTime};

use super::{NetJudge, NetSummary, NetVerdict, WireEvent};

/// The reference judge: ordered sets, one entry per request seen.
#[derive(Clone)]
struct SetJudge {
    windows: Vec<(Option<ClientId>, SimTime, SimTime)>,
    applied: BTreeMap<(u32, u64), u64>,
    acked: BTreeSet<(u32, u64)>,
    summary: NetSummary,
    verdicts: Vec<NetVerdict>,
}

impl SetJudge {
    fn observe(&mut self, event: &WireEvent) {
        match *event {
            WireEvent::Dropped { attempts, .. } => self.summary.dropped += u64::from(attempts),
            WireEvent::Delivered {
                client,
                req_id,
                at,
                duplicate,
            } => {
                self.summary.deliveries += 1;
                if duplicate {
                    self.summary.duplicates += 1;
                }
                let severed = self.windows.iter().any(|&(edge, start, end)| {
                    start <= at && at < end && edge.is_none_or(|c| c == client)
                });
                if severed {
                    self.summary.partition_leak += 1;
                    self.verdicts
                        .push(NetVerdict::PartitionLeak { client, req_id, at });
                }
            }
            WireEvent::Applied { client, req_id, .. } => {
                self.summary.applied += 1;
                let n = self.applied.entry((client.0, req_id)).or_insert(0);
                *n += 1;
                if *n == 2 {
                    self.summary.double_apply += 1;
                    self.verdicts
                        .push(NetVerdict::DoubleApply { client, req_id });
                }
            }
            WireEvent::Acked { client, req_id, .. } => {
                if self.acked.insert((client.0, req_id)) {
                    self.summary.acked += 1;
                }
            }
            WireEvent::GaveUp { .. } => self.summary.gave_up += 1,
        }
    }

    fn finish(mut self) -> (NetSummary, Vec<NetVerdict>) {
        for &(client, req_id) in &self.acked {
            if !self.applied.contains_key(&(client, req_id)) {
                self.summary.acked_lost += 1;
                self.verdicts.push(NetVerdict::AckedLost {
                    client: ClientId(client),
                    req_id,
                });
            }
        }
        (self.summary, self.verdicts)
    }
}

fn event(rng: &mut StdRng) -> WireEvent {
    // Mostly a few dense clients and ids, sometimes far-flung ones.
    let client = ClientId(if rng.gen_bool(0.9) {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..40)
    });
    let req_id = if rng.gen_bool(0.9) {
        rng.gen_range(0..24)
    } else {
        rng.gen_range(0..3_000)
    };
    let at = SimTime::from_secs(rng.gen_range(0..100));
    match rng.gen_range(0..5) {
        0 => WireEvent::Dropped {
            client,
            req_id,
            attempts: rng.gen_range(1..=64),
        },
        1 => WireEvent::Delivered {
            client,
            req_id,
            at,
            duplicate: rng.gen_bool(0.3),
        },
        2 => WireEvent::Applied { client, req_id, at },
        3 => WireEvent::Acked { client, req_id, at },
        _ => WireEvent::GaveUp { client, req_id },
    }
}

#[test]
fn dense_tables_match_ordered_sets() {
    let mut totals = NetSummary::default();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x6a75_6467_6500 ^ seed);
        let t = SimTime::from_secs;
        let windows = vec![
            (None, t(10), t(20)),
            (Some(ClientId(1)), t(30), t(45)),
            (Some(ClientId(17)), t(60), t(90)),
        ];
        let mut dense = NetJudge::new(windows.clone());
        let mut sets = SetJudge {
            windows,
            applied: BTreeMap::new(),
            acked: BTreeSet::new(),
            summary: NetSummary::default(),
            verdicts: Vec::new(),
        };
        for i in 0..300 {
            let e = event(&mut rng);
            dense.observe(&e);
            sets.observe(&e);
            assert_eq!(
                dense.clone().finish(),
                sets.clone().finish(),
                "seed {seed} event {i}: {e:?}"
            );
        }
        totals.merge(&dense.finish().0);
    }
    // Every verdict kind was exercised.
    assert!(totals.acked_lost > 0 && totals.double_apply > 0 && totals.partition_leak > 0);
}
