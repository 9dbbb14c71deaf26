//! The host plane: wall-clock stage profiling for the driver binaries.
//!
//! Everything in this module is **explicitly non-deterministic** — it
//! reads the host's monotonic clock and reports throughput that varies
//! with the machine, thread count, and load. It exists so `repro` can
//! report build/campaign timings without leaking wall-clock text into
//! parseable output: host-plane readings go to stderr via
//! [`Profiler::report`] and are never serialized into `results/`.
//!
//! detlint rule D7 makes this module unusable outside the host-plane
//! crates (`detlint::HOST_PLANE_CRATES`). Clippy's `disallowed_methods`
//! (the workspace `clippy.toml`) bans `Instant::now()` everywhere, and the
//! one `#[expect]` in [`Stage::begin`] is the audited exception that
//! quarantines the wall clock here instead of scattering it through
//! `repro`'s code.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A running wall-clock stage. Create with [`Stage::begin`], finish with
/// [`Stage::end`].
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    start: Instant,
}

impl Stage {
    /// Starts timing a named stage.
    pub fn begin(name: &'static str) -> Stage {
        #[expect(
            clippy::disallowed_methods,
            reason = "the host plane's one audited wall-clock site; D7 keeps it inside the \
                      host-plane crates"
        )]
        let start = Instant::now();
        Stage { name, start }
    }

    /// Stops the clock and yields the completed span.
    pub fn end(self) -> Span {
        Span {
            name: self.name,
            wall: self.start.elapsed(),
        }
    }
}

/// A completed stage: name plus wall-clock duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Wall-clock time the stage took.
    pub wall: Duration,
}

impl Span {
    /// Items per wall-clock second (0 when the span was too fast to
    /// measure).
    pub fn rate(&self, items: u64) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        items as f64 / secs
    }
}

/// One reported line: a span, optionally with a throughput annotation.
#[derive(Debug, Clone)]
struct Entry {
    span: Span,
    rates: Vec<(u64, &'static str)>,
}

/// Collects completed stages and renders the stderr profile report.
///
/// Construct with `Profiler::new(!quiet)`: a disabled profiler still
/// accepts spans (so driver code stays branch-free) but [`Profiler::report`]
/// returns an empty string.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    entries: Vec<Entry>,
    notes: Vec<String>,
}

impl Profiler {
    /// A profiler that reports when `enabled`, stays silent otherwise.
    pub fn new(enabled: bool) -> Profiler {
        Profiler {
            enabled,
            entries: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether reporting is enabled (`--quiet` turns it off).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed span; returns its wall time.
    pub fn record(&mut self, span: Span) -> Duration {
        let wall = span.wall;
        self.entries.push(Entry {
            span,
            rates: Vec::new(),
        });
        wall
    }

    /// Records a span with one or more throughput annotations
    /// (`(items, unit)` pairs, e.g. `(events, "events")`).
    pub fn record_with_rates(&mut self, span: Span, rates: &[(u64, &'static str)]) -> Duration {
        let wall = span.wall;
        self.entries.push(Entry {
            span,
            rates: rates.to_vec(),
        });
        wall
    }

    /// Records the peak shard imbalance of a per-shard load vector: the
    /// busiest shard's share relative to a perfectly even split.
    pub fn shard_imbalance(&mut self, what: &'static str, per_shard: &[u64]) {
        if per_shard.is_empty() {
            return;
        }
        let total: u64 = per_shard.iter().sum();
        if total == 0 {
            return;
        }
        let (peak_shard, peak) = per_shard
            .iter()
            .enumerate()
            .max_by_key(|&(i, v)| (*v, std::cmp::Reverse(i)))
            .map(|(i, v)| (i, *v))
            .unwrap_or((0, 0));
        let even = total as f64 / per_shard.len() as f64;
        self.notes.push(format!(
            "peak shard imbalance ({what}): {:.2}x even split (shard {peak_shard})",
            peak as f64 / even
        ));
    }

    /// Adds a free-form host-plane note to the report.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Renders the profile report (empty when disabled). One line per
    /// stage plus the collected notes — stderr material, never artifact
    /// text.
    pub fn report(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let width = self
            .entries
            .iter()
            .map(|e| e.span.name.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let _ = write!(
                out,
                "  {:<width$}  {:>8.2}s",
                e.span.name,
                e.span.wall.as_secs_f64()
            );
            for (items, unit) in &e.rates {
                let _ = write!(out, "  {} {unit}/s", human_rate(e.span.rate(*items)));
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }
}

/// Compact rate rendering: `912`, `4.1k`, `7.6M`.
fn human_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_measures_and_reports() {
        let mut prof = Profiler::new(true);
        let stage = Stage::begin("build");
        std::thread::sleep(Duration::from_millis(2));
        let span = stage.end();
        assert!(span.wall >= Duration::from_millis(1));
        prof.record(span);
        let campaign = Stage::begin("campaign").end();
        prof.record_with_rates(campaign, &[(1_000, "events")]);
        let report = prof.report();
        assert!(report.contains("build"));
        assert!(report.contains("campaign"));
        assert!(report.contains("events/s"));
    }

    #[test]
    fn disabled_profiler_reports_nothing() {
        let mut prof = Profiler::new(false);
        prof.record(Stage::begin("x").end());
        prof.shard_imbalance("events", &[1, 2, 3]);
        assert!(prof.report().is_empty());
        assert!(!prof.enabled());
    }

    #[test]
    fn imbalance_identifies_the_busiest_shard() {
        let mut prof = Profiler::new(true);
        prof.shard_imbalance("events", &[100, 100, 400, 100]);
        let report = prof.report();
        assert!(report.contains("(shard 2)"), "{report}");
        assert!(report.contains("2.29x"), "{report}");
        // Degenerate inputs are ignored, not divided by.
        prof.shard_imbalance("events", &[]);
        prof.shard_imbalance("events", &[0, 0]);
    }

    #[test]
    fn rates_render_human_units() {
        assert_eq!(human_rate(912.4), "912");
        assert_eq!(human_rate(4_100.0), "4.1k");
        assert_eq!(human_rate(7_600_000.0), "7.6M");
        let span = Span {
            name: "x",
            wall: Duration::ZERO,
        };
        assert_eq!(span.rate(10), 0.0);
    }
}
