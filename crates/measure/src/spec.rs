//! Experiment specification, mirroring §3.2 of the paper.

/// What one experiment does and how aggressively it probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Ping probes per target.
    pub ping_count: u32,
    /// Maximum traceroute depth.
    pub trace_max_ttl: u8,
    /// Traceroute at most this many replicas per experiment (rotating);
    /// the paper's 2.4 M pings/traceroutes/GETs over 280 k experiments
    /// imply per-experiment subsampling.
    pub replica_trace_sample: usize,
    /// Run resolver traceroutes every Nth experiment of a device.
    pub resolver_trace_every: u32,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            ping_count: 2,
            trace_max_ttl: 16,
            replica_trace_sample: 2,
            resolver_trace_every: 4,
        }
    }
}

impl ExperimentSpec {
    /// A lighter spec for tests and microbenches.
    pub fn light() -> Self {
        ExperimentSpec {
            ping_count: 1,
            trace_max_ttl: 12,
            replica_trace_sample: 1,
            resolver_trace_every: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_modest() {
        let s = ExperimentSpec::default();
        assert!(s.ping_count <= 3);
        assert!(s.replica_trace_sample <= 3);
    }

    #[test]
    fn light_is_lighter() {
        let d = ExperimentSpec::default();
        let l = ExperimentSpec::light();
        assert!(l.ping_count <= d.ping_count);
        assert!(l.replica_trace_sample <= d.replica_trace_sample);
    }
}
