//! In-memory spans recorded from the harness's side of each layer
//! boundary, dumped after the repetition ends.
//!
//! A span is `{workload, op, name, parent, start_ns, end_ns}`. Spans of one
//! op share its `op` number. Nothing inside the program is instrumented, so
//! a child the harness cannot reach from outside (`dnssim.resolve` under
//! `serve.handle`, `serve.handle` under `wire.rtt`) is timed by replaying
//! the same call on a shadow world after the timed pass: its duration is
//! real, its timestamps lie after its parent's. Self time is therefore
//! computed from durations: a span's own minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Trace`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    /// `capacity` spans are allocated up front so recording never grows the
    /// vector inside a timed phase.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Forgets every span; the epoch and the allocation stay.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The instant every `start_ns` / `end_ns` counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        op: u32,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a root span of op 0 (the one-per-repetition stages).
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, SpanId) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(0, name, NO_PARENT, start, end))
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Sum of durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// Sum over spans called `name` of own duration minus direct children's
    /// (clamped at zero in total, not per span, so replay noise cancels).
    pub fn self_ns(&self, name: &str) -> u64 {
        let own = self.total_ns(name);
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && self.spans[s.parent as usize].name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        own.saturating_sub(children)
    }

    /// Writes one JSON object per span, keeping every `keep_every`-th op
    /// (aggregates always use all spans; the dump is for reading).
    pub fn dump(&self, path: &Path, workload: &str, keep_every: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            if s.op % keep_every.max(1) != 0 {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {id}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_own_minus_children() {
        let mut t = Trace::new(4);
        let a = t.push(0, "serve.handle", NO_PARENT, 0, 100);
        t.push(0, "dnssim.resolve", a, 500, 560);
        let b = t.push(1, "serve.handle", NO_PARENT, 100, 150);
        t.push(1, "dnssim.resolve", b, 560, 600);
        assert_eq!(t.total_ns("serve.handle"), 150);
        assert_eq!(t.self_ns("serve.handle"), 50);
        assert_eq!(t.self_ns("dnssim.resolve"), 100);
    }
}
