//! §4 system-design walkthrough: a client crashes with live data in its
//! NVRAM; the board is moved to another workstation and its contents
//! recovered without loss — unless the batteries have all died.
//!
//! ```bash
//! cargo run --release --example crash_recovery
//! ```

use nvfs::nvram::{BatteryState, NvramBoard};
use nvfs::types::{ByteRange, ClientId, FileId, RangeSet};

fn main() {
    // Client 3 has been writing with a 1 MB NVRAM board installed.
    let mut board = NvramBoard::new(ClientId(3));
    board.store(FileId(100), ByteRange::new(0, 64 << 10));
    board.store(FileId(101), ByteRange::new(0, 12 << 10));
    board.store(FileId(101), ByteRange::new(32 << 10, 48 << 10));
    println!(
        "client3 crashes holding {:.0} KB of dirty data in NVRAM",
        board.dirty_bytes() as f64 / 1024.0
    );

    // §4: "it must be possible to move an NVRAM component to another
    // client and retrieve its data from the new location."
    board.move_to(ClientId(7));
    println!("board moved to {}", board.host());

    // One battery fails in transit; the redundant bank keeps data safe.
    let state = board.batteries_mut().fail_one();
    assert_eq!(state, BatteryState::Degraded);
    println!("one battery failed in transit -> bank is {state}, data still safe");

    let recovered = board.drain();
    let total: u64 = recovered.values().map(RangeSet::len_bytes).sum();
    println!(
        "recovered {:.0} KB across {} files:",
        total as f64 / 1024.0,
        recovered.len()
    );
    for (file, ranges) in &recovered {
        println!("  {file}: {ranges}");
    }
    assert_eq!(total, (64 << 10) + (12 << 10) + (16 << 10));

    // Contrast: a board whose batteries all die loses everything.
    let mut doomed = NvramBoard::new(ClientId(0));
    doomed.store(FileId(1), ByteRange::new(0, 4096));
    for _ in 0..3 {
        doomed.batteries_mut().fail_one();
    }
    assert!(doomed.drain().is_empty());
    println!("\na board with a fully dead battery bank recovers nothing —");
    println!("which is why Table 1's components carry up to three lithium batteries.");
}
