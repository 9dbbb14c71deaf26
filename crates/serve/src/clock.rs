//! The serving plane's wall clock. [`WallClock::new`] is the serving
//! plane's only wall-clock read: clippy's `disallowed_methods` (the
//! workspace `clippy.toml`) rejects `Instant::now()` anywhere else.

use std::time::Instant;

/// Wall time from [`Instant`], epoch = construction.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> WallClock {
        #[expect(
            clippy::disallowed_methods,
            reason = "the serving plane's one wall-clock read; everything else reads a \
                      `WallClock`"
        )]
        let start = Instant::now();
        WallClock { start }
    }

    /// Microseconds elapsed since the clock's epoch.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
