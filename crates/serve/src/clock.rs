//! The serving loop's notion of time, abstracted so the socket front end
//! and the load generator can be paced by the wall clock in production and
//! by a hand-cranked clock in tests. [`WallClock::new`] is the serving
//! plane's only wall-clock read: clippy's `disallowed_methods` (the
//! workspace `clippy.toml`) rejects `Instant::now()` anywhere else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic clock the serving plane paces itself with. Implementations
/// report microseconds since their own epoch (construction time).
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock's epoch.
    fn now_us(&self) -> u64;

    /// Blocks until at least `deadline_us` on this clock's timeline.
    /// Manual clocks return immediately (tests advance them explicitly).
    fn sleep_until(&self, deadline_us: u64);
}

/// The production clock: wall time from [`Instant`], epoch = construction.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> WallClock {
        #[expect(
            clippy::disallowed_methods,
            reason = "the serving plane's one wall-clock read; everything else paces itself \
                      through `Clock`"
        )]
        let start = Instant::now();
        WallClock { start }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn sleep_until(&self, deadline_us: u64) {
        let now = self.now_us();
        if deadline_us > now {
            std::thread::sleep(Duration::from_micros(deadline_us - now));
        }
    }
}

/// A hand-cranked clock for deterministic tests and benches: time moves
/// only when [`ManualClock::advance_us`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock at microsecond zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_until(&self, _deadline_us: u64) {
        // Tests drive time explicitly; sleeping would deadlock them.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.sleep_until(5_000);
        assert_eq!(c.now_us(), 0, "sleep on a manual clock must not block");
        c.advance_us(1_500);
        assert_eq!(c.now_us(), 1_500);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
        // sleep_until a past deadline returns immediately.
        c.sleep_until(0);
    }
}
