//! The benchmark's fixed facts: workload names, sizes and reasons, and the
//! metric tables. `ledger --benchmark-json` prints `BENCHMARK.json` from this file (a test
//! checks the committed copy against it).

/// One of the five workloads. Names are fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    CoreMix,
    CoreMiss,
    WireUdp,
    WireOpen,
}

/// Offered rate of the open-loop workload, queries per second.
pub const OPEN_RATE_QPS: u64 = 2_000;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Campaign,
        Workload::CoreMix,
        Workload::CoreMiss,
        Workload::WireUdp,
        Workload::WireOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::CoreMix => "core_mix",
            Workload::CoreMiss => "core_miss",
            Workload::WireUdp => "wire_udp",
            Workload::WireOpen => "wire_open",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists, one line (the `why` in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Campaign => "The batch product behind `repro all`: ~330 engine events per lookup, so netsim, the in-sim dnssim/dnswire hops and measure do nearly all the work and serve/loadgen do none.",
            Workload::CoreMix => "The default soak mix (5% forced misses) through ServeCore in process: cache-hit dominated, so serve's own work is a quarter of each op and serve-edge, obs and edge-codec changes show here first.",
            Workload::CoreMiss => "Same loop, every name a fresh nonce: a full recursion and a cache insert per op, so in-sim codec, forwarder and engine work dominate and a serve-edge gain should barely move it.",
            Workload::WireUdp => "What a `repro soak` user feels: a live DnsServer on loopback, closed loop with six queries in flight, so recv threads, mpsc, the bridge and the kernel socket path set the pace, not the core.",
            Workload::WireOpen => "Independent users: open loop at 2000 q/s, many in flight. A repetition with a shed or lost query is re-run and the fourth fails, so it gates keeping up. Latency is host-bound: bench.open_latency_*.",
        }
    }

    /// Whether per-op latency is an end-to-end (bounded) metric here. The
    /// campaign is a batch job and has none. The open loop has one, but it
    /// cannot be resolved on the shared reference box: at any rate that
    /// leaves the server idle between queries, each query wakes three
    /// sleeping threads on idle virtual CPUs, and what that costs drifts with
    /// the host (same binary, ten runs of five repetitions: p50 medians from
    /// 58 to 109 us, spread 0.17 to 0.50; p99 spread 0.11 to 0.34), while at
    /// rates that keep it busy the host's own stalls (about 1 % of wall time)
    /// decide the tail and overflow the admission queue. No bound the
    /// contract allows (0.25) holds that, so by the issue's own rule the two
    /// latencies are demoted to `bench.open_latency_*` diagnostics here.
    pub fn gates_latency(self) -> bool {
        !matches!(self, Workload::Campaign | Workload::WireOpen)
    }

    /// Scripted queries per repetition (serve workloads), sized so the
    /// timed phase lasts about 2.5 s or more on the reference 2-core box.
    pub fn queries(self, smoke: bool) -> u64 {
        let full = match self {
            Workload::Campaign => 0,
            Workload::CoreMix => 200_000,
            Workload::CoreMiss => 100_000,
            Workload::WireUdp => 80_000,
            Workload::WireOpen => 6_000,
        };
        if smoke {
            full / 20
        } else {
            full
        }
    }

    /// Cache-busting share of the script, in thousandths.
    pub fn miss_per_mille(self) -> u32 {
        if self == Workload::CoreMiss {
            1_000
        } else {
            50
        }
    }

    /// Campaign shape: (days, experiments per day).
    pub fn campaign_shape(smoke: bool) -> (u32, u32) {
        if smoke {
            (1, 1)
        } else {
            (6, 3)
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with its regression bound: the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. `fail_frac` is the sixth: its baseline is
/// exactly 0, so it has no relative bound and travels as `failed` /
/// `attempted` on the result line instead of appearing here.
///
/// The bounds are wider than the issue's sketch (0.10 to 0.25 by workload)
/// because its own rule sets them: at least twice the difference between two
/// sets of runs of one commit on the reference box. Three sets of ten runs
/// put the medians of `ops_per_s` 11 % apart on `core_mix` (a noisy
/// neighbour for ten minutes) and of `latency_p99_us` 22 % apart, against
/// 1 to 4 % for `latency_p50_us` (whose bound also covers `campaign`, where
/// it carries wall time per lookup and spreads 0.05 to 0.12 over ten seeds);
/// BENCHMARK.json's schema has one bound per metric, not per workload, and
/// none may exceed 0.25.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("ops_per_s", "1/s", Better::Higher, 0.25),
    end_to_end("latency_p50_us", "us", Better::Lower, 0.20),
    end_to_end("latency_p99_us", "us", Better::Lower, 0.25),
    // Thirteen server threads allocate from as many malloc arenas, and which
    // of them grow depends on timing: up to 0.09 spread on the wire workloads.
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// A per-layer metric: the layer is the crate name before the dot.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, from the traced repetition and the micro-loops.
/// Every traced run prints all of them; one a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [PerLayer; 57] = [
    lower("dnswire.query_decode_ns", "ns"),
    lower("dnswire.precheck_ns", "ns"),
    lower("dnswire.reply_decode_ns", "ns"),
    lower("dnswire.reply_encode_ns", "ns"),
    lower("dnswire.name_to_owned_ns", "ns"),
    lower("dnswire.reply_bytes_mean", "B"),
    lower("obs.inc_ns", "ns"),
    lower("obs.observe_ns", "ns"),
    lower("obs.export_ms", "ms"),
    lower("obs.series", "count"),
    lower("netsim.events_per_op", "count"),
    lower("netsim.ns_per_event", "ns"),
    lower("netsim.queue_ns", "ns"),
    lower("netsim.queue_depth_peak", "count"),
    lower("netsim.drops", "count"),
    lower("dnssim.resolve_us", "us"),
    lower("dnssim.resolve_tcp_us", "us"),
    higher("dnssim.cache_hit_frac", "ratio"),
    lower("dnssim.upstream_per_op", "count"),
    lower("dnssim.cache_evictions", "count"),
    lower("dnssim.cache_ns", "ns"),
    lower("cellsim.radio_ns", "ns"),
    lower("cdnsim.select_ns", "ns"),
    lower("measure.build_world_ms", "ms"),
    lower("measure.us_per_experiment", "us"),
    lower("measure.shard_day_ms_p50", "ms"),
    higher("measure.records", "count"),
    lower("measure.shard_imbalance", "ratio"),
    higher("measure.par2_speedup", "ratio"),
    lower("analysis.artifacts_ms", "ms"),
    lower("analysis.artifact_bytes", "B"),
    lower("serve.classify_ns", "ns"),
    lower("serve.admit_ns", "ns"),
    lower("serve.handle_us", "us"),
    lower("serve.self_us", "us"),
    lower("serve.reject_ns", "ns"),
    lower("serve.wire_overhead_us", "us"),
    lower("serve.tcp_rtt_us", "us"),
    lower("serve.shed", "count"),
    lower("serve.rejected", "count"),
    lower("serve.dropped", "count"),
    lower("serve.evicted", "count"),
    lower("loadgen.script_ns_per_query", "ns"),
    lower("loadgen.null_rtt_us", "us"),
    lower("loadgen.verify_us_per_query", "us"),
    higher("loadgen.driver_qps", "1/s"),
    lower("loadgen.tc_retries", "count"),
    lower("loadgen.wire_timeouts", "count"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.unattributed_frac", "ratio"),
    lower("bench.sched_lag_p99_us", "us"),
    lower("bench.latency_p999_us", "us"),
    lower("bench.open_latency_p50_us", "us"),
    lower("bench.open_latency_p99_us", "us"),
    lower("bench.calib_spread", "ratio"),
    lower("bench.fail_frac", "ratio"),
    lower("bench.reruns", "count"),
];

/// The ledger exits non-zero when a closed workload's traced repetition
/// leaves more than this share of its wall time outside every span.
pub const MAX_UNATTRIBUTED_FRAC: f64 = 0.30;
