//! The virtual clock: [`vl_types::Clock`] advanced by hand. The live
//! server (crate `vl-server`) implements the same trait over wall time,
//! so the same protocol code runs in both worlds.

use std::cell::Cell;
use std::fmt;
use vl_types::{Clock, Timestamp};

/// A manually advanced clock for simulations.
///
/// # Examples
///
/// ```
/// use vl_sim::VirtualClock;
/// use vl_types::{Clock, Timestamp};
///
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), Timestamp::ZERO);
/// clock.advance_to(Timestamp::from_secs(10));
/// assert_eq!(clock.now(), Timestamp::from_secs(10));
/// ```
#[derive(Default)]
pub struct VirtualClock {
    now: Cell<Timestamp>,
}

impl VirtualClock {
    /// Creates a clock at [`Timestamp::ZERO`].
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Creates a clock starting at `start`.
    pub fn starting_at(start: Timestamp) -> VirtualClock {
        let clock = VirtualClock::new();
        clock.now.set(start);
        clock
    }

    /// Moves the clock forward to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the current time — virtual time never
    /// runs backwards; a violation means events were mis-ordered.
    pub fn advance_to(&self, to: Timestamp) {
        assert!(
            to >= self.now.get(),
            "virtual clock moved backwards: {} -> {}",
            self.now.get(),
            to
        );
        self.now.set(to);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        self.now.get()
    }
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualClock")
            .field("now", &self.now.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance_to(Timestamp::from_secs(3));
        c.advance_to(Timestamp::from_secs(3)); // same instant is fine
        assert_eq!(c.now(), Timestamp::from_secs(3));
    }

    #[test]
    fn starting_at_offset() {
        let c = VirtualClock::starting_at(Timestamp::from_secs(7));
        assert_eq!(c.now(), Timestamp::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn backwards_panics() {
        let c = VirtualClock::starting_at(Timestamp::from_secs(5));
        c.advance_to(Timestamp::from_secs(4));
    }
}
