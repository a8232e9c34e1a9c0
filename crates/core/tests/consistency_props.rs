//! Randomized tests on the consistency-server state machine: arbitrary
//! open/close/write/delete interleavings must never panic, the disabled
//! state must hold exactly while a write-sharing conflict exists, and
//! recalls must only ever point at real last-writers.
//!
//! Formerly proptest-based; now driven by a seeded [`nvfs_rng::StdRng`] so
//! the suite builds offline and failures reproduce exactly.

use nvfs_core::consistency::ConsistencyServer;
use nvfs_core::ConsistencyMode;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::event::OpenMode;
use nvfs_types::{ClientId, FileId};
use std::collections::BTreeMap;

const CLIENTS: u32 = 4;
const FILES: u32 = 3;

#[derive(Debug, Clone, Copy)]
enum Step {
    Open(u32, u32, bool),
    Close(u32, u32),
    Write(u32, u32),
    Flush(u32, u32),
    Delete(u32),
}

fn rand_step(rng: &mut StdRng) -> Step {
    let c = rng.gen_range(0..CLIENTS);
    let f = rng.gen_range(0..FILES);
    match rng.gen_range(0..5u32) {
        0 => Step::Open(c, f, rng.gen_bool(0.5)),
        1 => Step::Close(c, f),
        2 => Step::Write(c, f),
        3 => Step::Flush(c, f),
        _ => Step::Delete(f),
    }
}

fn rand_steps(rng: &mut StdRng, max: usize) -> Vec<Step> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| rand_step(rng)).collect()
}

/// Reference model: per-file multiset of (client, writing) opens.
#[derive(Default)]
struct Model {
    opens: BTreeMap<u32, Vec<(u32, bool)>>,
}

impl Model {
    fn sharing_conflict(&self, file: u32) -> bool {
        let Some(list) = self.opens.get(&file) else {
            return false;
        };
        let clients: std::collections::BTreeSet<u32> = list.iter().map(|&(c, _)| c).collect();
        clients.len() >= 2 && list.iter().any(|&(_, w)| w)
    }
}

#[test]
fn state_machine_is_sound() {
    let mut rng = StdRng::seed_from_u64(0xC0_0001);
    for _case in 0..256 {
        let steps = rand_steps(&mut rng, 80);
        for mode in [ConsistencyMode::WholeFile, ConsistencyMode::BlockOnDemand] {
            let mut server = ConsistencyServer::with_mode(mode);
            let mut model = Model::default();
            let mut last_writer: BTreeMap<u32, u32> = BTreeMap::new();

            for step in &steps {
                match *step {
                    Step::Open(c, f, w) => {
                        let outcome = server.on_open(
                            FileId(f),
                            ClientId(c),
                            if w { OpenMode::Write } else { OpenMode::Read },
                        );
                        // A recall may only target the recorded last writer,
                        // and never the opener itself.
                        if let Some(target) = outcome.recall_from {
                            assert_eq!(mode, ConsistencyMode::WholeFile, "{steps:?}");
                            assert_ne!(target, ClientId(c), "{steps:?}");
                            assert_eq!(Some(&target.0), last_writer.get(&f), "{steps:?}");
                            last_writer.remove(&f);
                        }
                        model.opens.entry(f).or_default().push((c, w));
                        // Once a conflict exists, caching must be disabled.
                        if model.sharing_conflict(f) {
                            assert!(server.is_disabled(FileId(f)), "{steps:?}");
                        }
                    }
                    Step::Close(c, f) => {
                        server.on_close(FileId(f), ClientId(c));
                        if let Some(list) = model.opens.get_mut(&f) {
                            if let Some(pos) = list.iter().position(|&(mc, _)| mc == c) {
                                list.remove(pos);
                            }
                            if list.is_empty() {
                                model.opens.remove(&f);
                                // Everyone closed: caching re-enabled.
                                assert!(!server.is_disabled(FileId(f)), "{steps:?}");
                            }
                        }
                    }
                    Step::Write(c, f) => {
                        server.note_write(FileId(f), ClientId(c));
                        if !server.is_disabled(FileId(f)) {
                            last_writer.insert(f, c);
                        }
                    }
                    Step::Flush(c, f) => {
                        server.note_flush(FileId(f), ClientId(c));
                        if last_writer.get(&f) == Some(&c) {
                            last_writer.remove(&f);
                        }
                    }
                    Step::Delete(f) => {
                        server.on_delete(FileId(f));
                        model.opens.remove(&f);
                        last_writer.remove(&f);
                        assert!(!server.is_disabled(FileId(f)), "{steps:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn block_mode_never_recalls_at_open() {
    let mut rng = StdRng::seed_from_u64(0xC0_0002);
    for _case in 0..256 {
        let steps = rand_steps(&mut rng, 60);
        let mut server = ConsistencyServer::with_mode(ConsistencyMode::BlockOnDemand);
        for step in &steps {
            match *step {
                Step::Open(c, f, w) => {
                    let outcome = server.on_open(
                        FileId(f),
                        ClientId(c),
                        if w { OpenMode::Write } else { OpenMode::Read },
                    );
                    assert_eq!(outcome.recall_from, None, "{steps:?}");
                    assert!(!outcome.invalidate_opener, "{steps:?}");
                }
                Step::Close(c, f) => {
                    server.on_close(FileId(f), ClientId(c));
                }
                Step::Write(c, f) => server.note_write(FileId(f), ClientId(c)),
                Step::Flush(c, f) => server.note_flush(FileId(f), ClientId(c)),
                Step::Delete(f) => {
                    server.on_delete(FileId(f));
                }
            }
        }
    }
}
