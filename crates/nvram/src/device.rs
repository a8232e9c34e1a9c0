//! NVRAM access accounting.
//!
//! §2.6 of the paper compares the cache models on "the amount of traffic
//! they generate on the memory bus and the number of accesses they generate
//! to the NVRAM" — the unified model makes 2–2.5× as many NVRAM accesses as
//! write-aside, which matters if NVRAM is slower than DRAM. This device
//! model carries the counters those comparisons need.

/// A client- or server-side NVRAM component.
///
/// The device does not store payloads (the simulators track cache contents
/// themselves) and its batteries live on the [`NvramBoard`](crate::NvramBoard);
/// it counts accesses.
///
/// # Examples
///
/// ```
/// use nvfs_nvram::NvramDevice;
///
/// let mut nv = NvramDevice::new();
/// nv.record_write(4096);
/// nv.record_read(4096);
/// assert_eq!(nv.accesses(), 2);
/// assert_eq!(nv.bytes_transferred(), 8192);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvramDevice {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
}

impl NvramDevice {
    /// A device with zeroed counters.
    pub fn new() -> Self {
        NvramDevice::default()
    }

    /// Records a read access of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.reads += 1;
        self.read_bytes += bytes;
    }

    /// Records a write access of `bytes`.
    pub fn record_write(&mut self, bytes: u64) {
        self.writes += 1;
        self.write_bytes += bytes;
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Read accesses.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write accesses.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes moved through the device.
    pub fn bytes_transferred(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Clears the access counters.
    pub fn reset_counters(&mut self) {
        *self = NvramDevice::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let mut nv = NvramDevice::new();
        nv.record_write(100);
        nv.record_write(200);
        nv.record_read(50);
        assert_eq!(nv.writes(), 2);
        assert_eq!(nv.reads(), 1);
        assert_eq!(nv.bytes_transferred(), 350);
        nv.reset_counters();
        assert_eq!(nv.accesses(), 0);
    }
}
