//! A capacity-bounded NVRAM device with access accounting.
//!
//! §2.6 of the paper compares the cache models on "the amount of traffic
//! they generate on the memory bus and the number of accesses they generate
//! to the NVRAM" — the unified model makes 2–2.5× as many NVRAM accesses as
//! write-aside, which matters if NVRAM is slower than DRAM. This device
//! model carries the counters those comparisons need.

use crate::battery::BatteryBank;

/// A client- or server-side NVRAM component.
///
/// The device does not store payloads (the simulators track cache contents
/// themselves); it tracks capacity, access counts, and battery health.
///
/// # Examples
///
/// ```
/// use nvfs_nvram::NvramDevice;
///
/// let mut nv = NvramDevice::new(1 << 20);
/// nv.record_write(4096);
/// nv.record_read(4096);
/// assert_eq!(nv.accesses(), 2);
/// assert_eq!(nv.bytes_transferred(), 8192);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvramDevice {
    capacity: u64,
    batteries: BatteryBank,
    /// Access time relative to DRAM, in tenths (10 = parity, 15 = 1.5×).
    access_time_tenths: u32,
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
}

impl NvramDevice {
    /// Creates a device with `capacity` bytes, triply redundant batteries,
    /// and DRAM-parity access time.
    pub fn new(capacity: u64) -> Self {
        NvramDevice {
            capacity,
            batteries: BatteryBank::default(),
            access_time_tenths: 10,
            reads: 0,
            writes: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Sets the access-time ratio relative to DRAM (e.g. `1.5` for 50%
    /// slower). Returns `self` for builder-style chaining.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1.0` (NVRAM is never faster than DRAM here).
    pub fn with_access_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "NVRAM access ratio must be >= 1.0");
        self.access_time_tenths = (ratio * 10.0).round() as u32;
        self
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Battery bank (mutable, so failures can be injected).
    pub fn batteries_mut(&mut self) -> &mut BatteryBank {
        &mut self.batteries
    }

    /// Battery bank.
    pub fn batteries(&self) -> &BatteryBank {
        &self.batteries
    }

    /// Access-time ratio relative to DRAM.
    pub fn access_ratio(&self) -> f64 {
        self.access_time_tenths as f64 / 10.0
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

    /// Clears the access counters (capacity and batteries unchanged).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.read_bytes = 0;
        self.write_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let mut nv = NvramDevice::new(1024);
        nv.record_write(100);
        nv.record_write(200);
        nv.record_read(50);
        assert_eq!(nv.writes(), 2);
        assert_eq!(nv.reads(), 1);
        assert_eq!(nv.bytes_transferred(), 350);
        nv.reset_counters();
        assert_eq!(nv.accesses(), 0);
        assert_eq!(nv.capacity(), 1024);
    }

    #[test]
    fn access_ratio_round_trips() {
        let nv = NvramDevice::new(1024).with_access_ratio(1.5);
        assert_eq!(nv.access_ratio(), 1.5);
        assert_eq!(NvramDevice::new(1).access_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn sub_unity_ratio_rejected() {
        let _ = NvramDevice::new(1024).with_access_ratio(0.5);
    }

    #[test]
    fn battery_failures_reachable() {
        let mut nv = NvramDevice::new(1024);
        nv.batteries_mut().fail_one();
        assert!(nv.batteries().preserves_data());
    }
}
