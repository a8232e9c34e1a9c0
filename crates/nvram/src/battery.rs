//! Battery bank state machine.
//!
//! Table 1's components carry one to three lithium batteries; "most of the
//! components have at least one extra battery in case the first battery
//! fails", and the boards use "triply redundant batteries". Data is safe as
//! long as at least one battery survives.

use std::fmt;

use nvfs_types::SimTime;

/// Health of the battery bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatteryState {
    /// All batteries healthy.
    Healthy,
    /// Some batteries failed but at least one survives; data is safe but
    /// the component should be serviced.
    Degraded,
    /// Every battery failed; contents are no longer non-volatile.
    Dead,
}

impl fmt::Display for BatteryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BatteryState::Healthy => "healthy",
            BatteryState::Degraded => "degraded",
            BatteryState::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// A bank of redundant lithium batteries backing an NVRAM component.
///
/// # Examples
///
/// ```
/// use nvfs_nvram::{BatteryBank, BatteryState};
///
/// let mut bank = BatteryBank::new(3);
/// assert_eq!(bank.state(), BatteryState::Healthy);
/// bank.fail_one();
/// bank.fail_one();
/// assert_eq!(bank.state(), BatteryState::Degraded);
/// assert!(bank.preserves_data());
/// bank.fail_one();
/// assert_eq!(bank.state(), BatteryState::Dead);
/// assert!(!bank.preserves_data());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatteryBank {
    total: u8,
    alive: u8,
}

impl BatteryBank {
    /// Creates a bank of `count` healthy batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (a battery-less part is just DRAM).
    pub fn new(count: u8) -> Self {
        assert!(count > 0, "an NVRAM component needs at least one battery");
        BatteryBank {
            total: count,
            alive: count,
        }
    }

    /// Current health.
    pub fn state(&self) -> BatteryState {
        match self.alive {
            0 => BatteryState::Dead,
            a if a == self.total => BatteryState::Healthy,
            _ => BatteryState::Degraded,
        }
    }

    /// Whether stored data would survive right now: at least one battery
    /// alive.
    pub fn preserves_data(&self) -> bool {
        self.alive > 0
    }

    /// Fails one battery (no-op once the bank is dead). Returns the new
    /// state so callers can trigger servicing on the transition to
    /// [`BatteryState::Degraded`].
    pub fn fail_one(&mut self) -> BatteryState {
        self.alive = self.alive.saturating_sub(1);
        self.state()
    }

    /// Replaces every failed battery.
    pub fn service(&mut self) {
        self.alive = self.total;
    }

    /// Ages the bank against a failure clock: every entry of
    /// `failure_clock` (one absolute failure instant per installed cell,
    /// extra entries ignored) that is `<= now` has taken its cell with it.
    ///
    /// Idempotent, and never resurrects a cell that was already failed by
    /// [`fail_one`](BatteryBank::fail_one). Returns the resulting state so
    /// callers can react to the Healthy→Degraded→Dead transitions.
    pub fn age_to(&mut self, now: SimTime, failure_clock: &[SimTime]) -> BatteryState {
        let expired = failure_clock
            .iter()
            .take(self.total as usize)
            .filter(|&&t| t <= now)
            .count() as u8;
        self.alive = self.alive.min(self.total - expired);
        self.state()
    }
}

impl Default for BatteryBank {
    /// A board-style triply redundant bank.
    fn default() -> Self {
        BatteryBank::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_battery_simm_dies_on_first_failure() {
        let mut bank = BatteryBank::new(1);
        assert_eq!(bank.fail_one(), BatteryState::Dead);
        assert!(!bank.preserves_data());
    }

    #[test]
    fn service_restores_full_health() {
        let mut bank = BatteryBank::new(2);
        bank.fail_one();
        assert_eq!(bank.state(), BatteryState::Degraded);
        bank.service();
        assert_eq!(bank.state(), BatteryState::Healthy);
        assert_eq!(bank.alive, 2);
    }

    #[test]
    fn fail_is_idempotent_at_zero() {
        let mut bank = BatteryBank::new(1);
        bank.fail_one();
        bank.fail_one();
        assert_eq!(bank.alive, 0);
        assert_eq!(bank.state(), BatteryState::Dead);
    }

    #[test]
    #[should_panic(expected = "at least one battery")]
    fn zero_batteries_rejected() {
        let _ = BatteryBank::new(0);
    }

    #[test]
    fn state_transitions_are_ordered_healthy_degraded_dead() {
        let mut bank = BatteryBank::new(3);
        let mut seen = vec![bank.state()];
        for _ in 0..3 {
            seen.push(bank.fail_one());
        }
        assert_eq!(
            seen,
            vec![
                BatteryState::Healthy,
                BatteryState::Degraded,
                BatteryState::Degraded,
                BatteryState::Dead,
            ],
            "failures must walk Healthy→Degraded→Dead, never backwards"
        );
    }

    #[test]
    fn one_survivor_keeps_data_safe() {
        let mut bank = BatteryBank::new(3);
        bank.fail_one();
        bank.fail_one();
        assert_eq!(bank.alive, 1);
        assert_eq!(bank.state(), BatteryState::Degraded);
        assert!(
            bank.preserves_data(),
            "a single surviving cell must keep contents non-volatile"
        );
        bank.fail_one();
        assert!(!bank.preserves_data());
    }

    #[test]
    fn age_to_follows_the_failure_clock() {
        let clock = [
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            SimTime::from_secs(30),
        ];
        let mut bank = BatteryBank::new(3);
        assert_eq!(
            bank.age_to(SimTime::from_secs(5), &clock),
            BatteryState::Healthy
        );
        assert_eq!(
            bank.age_to(SimTime::from_secs(25), &clock),
            BatteryState::Degraded
        );
        assert_eq!(bank.alive, 1);
        // Idempotent: re-aging to the same instant changes nothing.
        assert_eq!(
            bank.age_to(SimTime::from_secs(25), &clock),
            BatteryState::Degraded
        );
        assert_eq!(
            bank.age_to(SimTime::from_secs(31), &clock),
            BatteryState::Dead
        );
        // A two-cell bank ignores the third clock entry.
        let mut pair = BatteryBank::new(2);
        assert_eq!(
            pair.age_to(SimTime::from_secs(25), &clock),
            BatteryState::Dead
        );
    }

    #[test]
    fn age_to_never_resurrects_manually_failed_cells() {
        let clock = [SimTime::from_secs(100); 3];
        let mut bank = BatteryBank::new(3);
        bank.fail_one();
        bank.age_to(SimTime::from_secs(1), &clock);
        assert_eq!(bank.alive, 2, "aging must not undo an injected failure");
    }

    #[test]
    fn display_values() {
        assert_eq!(BatteryState::Healthy.to_string(), "healthy");
        assert_eq!(BatteryState::Degraded.to_string(), "degraded");
        assert_eq!(BatteryState::Dead.to_string(), "dead");
    }
}
