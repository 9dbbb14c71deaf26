//! The fleet campaign driver: periodic experiments across every device for
//! weeks of simulated time, daily churn passes, and the university-vantage
//! reachability probes of Table 4.
//!
//! The campaign runs per carrier shard. Shards share no mutable state, so
//! the driver executes them on a scoped thread pool and then merges their
//! records in canonical carrier/device/sequence order — output is
//! bit-for-bit identical for every thread count.

use crate::experiment::run_experiment_in_shard;
use crate::metrics::harvest_shard;
use crate::record::{Dataset, ExperimentRecord, ExternalReachProbe};
use crate::spec::ExperimentSpec;
use crate::world::{Backbone, CarrierShard, World};
use netsim::time::{SimDuration, SimTime};
use rand::Rng as _;

/// Campaign shape. The paper ran five months at roughly hourly cadence
/// (280 k experiments); the default here is a six-week campaign at 4-hour
/// cadence, which preserves every longitudinal effect at ~1/7 the cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Simulated days.
    pub days: u32,
    /// Experiments per device per day.
    pub experiments_per_day: u32,
    /// Per-experiment behaviour.
    pub spec: ExperimentSpec,
    /// Day on which the university probes carrier resolvers (Table 4).
    pub external_probe_day: Option<u32>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            days: 42,
            experiments_per_day: 6,
            spec: ExperimentSpec::default(),
            external_probe_day: Some(21),
        }
    }
}

impl CampaignConfig {
    /// A small campaign for tests and benches.
    pub fn quick() -> Self {
        CampaignConfig {
            days: 4,
            experiments_per_day: 3,
            spec: ExperimentSpec::light(),
            external_probe_day: Some(2),
        }
    }
}

/// How many OS threads the campaign driver may use. Results are identical
/// for every setting — the knob trades wall-clock time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread per carrier shard, capped by the machine's available
    /// parallelism.
    #[default]
    Auto,
    /// Exactly `n` threads (`0` and `1` both mean single-threaded).
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete thread count for `shards` shards.
    pub fn resolve(self, shards: usize) -> usize {
        let threads = match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Threads(n) => n.max(1),
        };
        threads.min(shards.max(1))
    }
}

/// Offset of experiment slot `slot` within a day. Slot starts are spread
/// over the full 24 h with the division remainder distributed across slots
/// (`⌊day · k / n⌋`), so the last inter-slot gap is never inflated by the
/// truncation that plain `24h / n` division would accumulate.
fn slot_offset(slot: u32, experiments_per_day: u32) -> SimDuration {
    let n = experiments_per_day.max(1) as u64;
    let day_us = SimDuration::from_hours(24).as_micros();
    SimDuration::from_micros(day_us * slot as u64 / n)
}

/// One per-shard progress tick, emitted after each simulated day.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// Shard (= carrier) index.
    pub shard: usize,
    /// Carrier name.
    pub carrier: &'a str,
    /// Day just completed (0-based).
    pub day: u32,
    /// Total days in the campaign.
    pub days: u32,
    /// Records this shard has produced so far.
    pub records: usize,
    /// Engine events this shard has dispatched so far.
    pub events: u64,
}

/// A progress callback, invoked from shard worker threads (hence `Sync`).
/// It observes wall-clock-free facts only; what the caller does with them
/// (a stderr line, a profiler note) is host-plane business.
pub type ProgressFn = dyn Fn(ProgressEvent<'_>) + Sync;

/// One shard's campaign output, in (day, slot, device) order.
struct ShardRun {
    records: Vec<ExperimentRecord>,
    external_reach: Vec<ExternalReachProbe>,
    metrics: obs::Registry,
}

/// The campaign's full observed output: the dataset plus the merged
/// sim-plane metric registry.
pub struct CampaignRun {
    /// The merged dataset, in canonical record order.
    pub dataset: Dataset,
    /// Per-shard registries folded in canonical carrier order.
    pub metrics: obs::Registry,
}

/// Runs the full campaign on one shard. This is the whole per-carrier
/// workload: daily churn, every experiment slot, and (on the probe day)
/// the university's reachability probes of this carrier's resolvers.
fn run_shard_campaign(
    backbone: &Backbone,
    shard: &mut CarrierShard,
    cfg: &CampaignConfig,
    progress: Option<&ProgressFn>,
) -> ShardRun {
    let mut records = Vec::with_capacity(
        cfg.days as usize * cfg.experiments_per_day as usize * shard.devices.len(),
    );
    let mut external_reach = Vec::new();
    let mut seq = vec![0u32; shard.devices.len()];
    // Gateway sites the fleet has ever attached a bearer to. Small fleets
    // on site-rich carriers (Sprint: 9 devices, 49 sites) would otherwise
    // never visit the tail, so §5.2's egress census under-counts.
    let mut visited = vec![false; shard.carrier.sites.len()];
    for d in &shard.devices {
        visited[d.site] = true;
    }
    // High-water mark of the engine's completed-flow backlog, sampled just
    // before each reap: proves the drain policy keeps it bounded no matter
    // how many days the campaign runs.
    let mut completed_high_water = 0u64;
    for day in 0..cfg.days {
        let day_start = SimTime::ZERO + SimDuration::from_days(day as u64);
        // Daily churn pass (commuting, bearer re-homing). A re-home moves
        // one stub link; the shared core routes need no recompute.
        for d in shard.devices.iter_mut() {
            d.daily_churn(&mut shard.net, &mut shard.carrier, &mut shard.rng);
            visited[d.site] = true;
        }
        // Egress-coverage nudge: while any gateway site has never hosted a
        // bearer, re-home one (rotation-lane-chosen) device to the
        // lowest-index unvisited site for the day. Carriers whose fleet
        // already covers every site never reach this draw, so their
        // schedules are untouched.
        if let Some(target) = visited.iter().position(|v| !v) {
            let i = shard.rotation_rng.gen_range(0..shard.devices.len());
            shard.devices[i].reattach(&mut shard.net, &mut shard.carrier, target);
            visited[target] = true;
        }
        for slot in 0..cfg.experiments_per_day {
            let slot_start = day_start + slot_offset(slot, cfg.experiments_per_day);
            for (i, device_seq) in seq.iter_mut().enumerate() {
                // Stagger devices so they do not fire simultaneously; keyed
                // on the fleet-global device id so the schedule is
                // independent of how devices are sharded.
                let id = shard.devices[i].id as u64;
                let t = slot_start + SimDuration::from_secs(13 * id);
                shard.net.skip_to(t);
                // Reap outcomes nobody polled from earlier experiments so
                // the completed-flow map stays bounded over a campaign.
                completed_high_water = completed_high_water.max(shard.net.completed_len() as u64);
                shard.net.take_completed_before(t);
                let record = run_experiment_in_shard(backbone, shard, i, *device_seq, &cfg.spec);
                *device_seq += 1;
                records.push(record);
            }
        }
        if cfg.external_probe_day == Some(day) {
            external_reach = probe_shard_reachability(backbone, shard, &cfg.spec);
        }
        if let Some(tick) = progress {
            tick(ProgressEvent {
                shard: shard.index,
                carrier: shard.carrier.profile.name,
                day,
                days: cfg.days,
                records: records.len(),
                events: shard.net.stats.events,
            });
        }
    }
    let mut metrics = obs::Registry::new();
    harvest_shard(backbone, shard, &records, &mut metrics);
    metrics.gauge_set(
        "campaign.completed_backlog",
        &[("carrier", shard.carrier.profile.name)],
        completed_high_water,
    );
    ShardRun {
        records,
        external_reach,
        metrics,
    }
}

/// Merges per-shard outputs into the canonical dataset order: for each
/// (day, slot) block, shard 0's devices, then shard 1's, … — i.e. global
/// device order, exactly as a single-threaded global loop would emit them.
fn merge_shard_runs(world: &World, cfg: &CampaignConfig, runs: Vec<ShardRun>) -> Dataset {
    let mut dataset = Dataset {
        domains: world
            .backbone
            .catalog
            .iter()
            .map(|e| e.domain.clone())
            .collect(),
        carrier_names: world
            .shards
            .iter()
            .map(|s| s.carrier.profile.name.to_string())
            .collect(),
        carrier_public: world
            .shards
            .iter()
            .map(|s| s.carrier.public_prefix)
            .collect(),
        ..Dataset::default()
    };
    let blocks = cfg.days as usize * cfg.experiments_per_day as usize;
    let sizes: Vec<usize> = world.shards.iter().map(|s| s.devices.len()).collect();
    let mut cursors: Vec<std::vec::IntoIter<ExperimentRecord>> = Vec::with_capacity(runs.len());
    for run in &runs {
        debug_assert_eq!(run.records.len() % blocks.max(1), 0);
    }
    let mut externals = Vec::new();
    for run in runs {
        cursors.push(run.records.into_iter());
        externals.push(run.external_reach);
    }
    dataset
        .records
        .reserve(cursors.iter().map(|c| c.len()).sum());
    for _ in 0..blocks {
        for (cursor, &n) in cursors.iter_mut().zip(&sizes) {
            for _ in 0..n {
                #[expect(
                    clippy::expect_used,
                    reason = "block sizes were computed from the shard outputs being drained, so \
                              the cursor cannot run short"
                )]
                let record = cursor.next().expect("shard produced a full block");
                dataset.records.push(record);
            }
        }
    }
    // External probes merge in carrier order (each shard probed only its
    // own carrier).
    dataset.external_reach = externals.into_iter().flatten().collect();
    dataset
}

/// Runs the campaign, consuming simulated time on `world`, with automatic
/// thread-count selection. See [`run_campaign_with`].
pub fn run_campaign(world: &mut World, cfg: &CampaignConfig) -> Dataset {
    run_campaign_with(world, cfg, Parallelism::Auto)
}

/// Runs the campaign with an explicit parallelism policy. Shards execute
/// independently (possibly concurrently); the dataset is assembled in
/// canonical order, so the result is byte-identical for every thread count.
pub fn run_campaign_with(
    world: &mut World,
    cfg: &CampaignConfig,
    parallelism: Parallelism,
) -> Dataset {
    run_campaign_observed(world, cfg, parallelism, None).dataset
}

/// Runs the campaign and returns both the dataset and the merged sim-plane
/// metric registry, optionally reporting per-shard progress. Per-shard
/// registries are folded in canonical carrier order, so the registry — and
/// any bytes exported from it — is identical for every thread count.
pub fn run_campaign_observed(
    world: &mut World,
    cfg: &CampaignConfig,
    parallelism: Parallelism,
    progress: Option<&ProgressFn>,
) -> CampaignRun {
    let backbone = std::sync::Arc::clone(&world.backbone);
    let threads = parallelism.resolve(world.shards.len());
    let runs: Vec<ShardRun> = if threads <= 1 {
        world
            .shards
            .iter_mut()
            .map(|s| run_shard_campaign(&backbone, s, cfg, progress))
            .collect()
    } else {
        // Deal shards into `threads` contiguous chunks; each worker drains
        // its chunk in order. Chunking only affects scheduling, never
        // results.
        let n = world.shards.len();
        let per = n.div_ceil(threads);
        let mut slots: Vec<Option<ShardRun>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (shard_chunk, out_chunk) in world.shards.chunks_mut(per).zip(slots.chunks_mut(per))
            {
                let backbone = &backbone;
                scope.spawn(move || {
                    for (shard, out) in shard_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                        *out = Some(run_shard_campaign(backbone, shard, cfg, progress));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                #[expect(
                    clippy::expect_used,
                    reason = "the scope joined every worker and each worker fills its own slot; \
                              an empty slot means a panic the join already propagated"
                )]
                let run = s.expect("worker covered every shard");
                run
            })
            .collect()
    };
    let mut metrics = obs::Registry::new();
    for run in &runs {
        metrics.merge_from(&run.metrics);
    }
    CampaignRun {
        dataset: merge_shard_runs(world, cfg, runs),
        metrics,
    }
}

/// Table 4 for one shard: from the university vantage point, ping and
/// traceroute this carrier's external resolvers.
fn probe_shard_reachability(
    backbone: &Backbone,
    shard: &mut CarrierShard,
    spec: &ExperimentSpec,
) -> Vec<ExternalReachProbe> {
    let university = backbone.university;
    let mut probes = Vec::new();
    for &(_, addr) in &shard.carrier.external_resolvers {
        let ping = shard.net.ping_train(university, addr, spec.ping_count);
        let trace = shard.net.traceroute(university, addr, spec.trace_max_ttl);
        probes.push(ExternalReachProbe {
            carrier: shard.index as u8,
            target: addr,
            ping_ok: ping.reachable(),
            traceroute_reached: trace.reached,
            responding_hops: trace.responding_hops().len() as u8,
        });
    }
    probes
}

/// Table 4: from the university vantage point, ping and traceroute every
/// carrier's external resolvers.
pub fn probe_external_reachability(
    world: &mut World,
    spec: &ExperimentSpec,
) -> Vec<ExternalReachProbe> {
    let backbone = std::sync::Arc::clone(&world.backbone);
    world
        .shards
        .iter_mut()
        .flat_map(|s| probe_shard_reachability(&backbone, s, spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_world, WorldConfig};

    #[test]
    fn quick_campaign_produces_records_for_all_devices() {
        let mut world = build_world(WorldConfig::quick(77));
        let cfg = CampaignConfig {
            days: 2,
            experiments_per_day: 2,
            spec: ExperimentSpec::light(),
            external_probe_day: Some(0),
        };
        let ds = run_campaign(&mut world, &cfg);
        assert_eq!(ds.records.len(), world.device_count() * 4);
        assert!(!ds.external_reach.is_empty());
        assert!(ds.resolution_count() > 0);
        // Timestamps are monotone within a device.
        for dev in 0..world.device_count() {
            let ts: Vec<_> = ds
                .records
                .iter()
                .filter(|r| r.device_id as usize == dev)
                .map(|r| r.t)
                .collect();
            assert!(ts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn records_merge_in_global_device_order() {
        let mut world = build_world(WorldConfig::quick(79));
        let cfg = CampaignConfig {
            days: 1,
            experiments_per_day: 2,
            spec: ExperimentSpec::light(),
            external_probe_day: None,
        };
        let n = world.device_count();
        let ds = run_campaign(&mut world, &cfg);
        for (i, r) in ds.records.iter().enumerate() {
            assert_eq!(r.device_id as usize, i % n, "record {i} out of order");
        }
    }

    #[test]
    fn external_probes_never_traceroute_into_carriers() {
        let mut world = build_world(WorldConfig::quick(78));
        let probes = probe_external_reachability(&mut world, &ExperimentSpec::light());
        assert!(probes.iter().all(|p| !p.traceroute_reached));
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = |seed| {
            let mut world = build_world(WorldConfig::quick(seed));
            let cfg = CampaignConfig {
                days: 1,
                experiments_per_day: 1,
                spec: ExperimentSpec::light(),
                external_probe_day: None,
            };
            let ds = run_campaign(&mut world, &cfg);
            ds.records
                .iter()
                .flat_map(|r| r.lookups.iter().map(|l| l.elapsed_us))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |par: Parallelism| {
            let mut world = build_world(WorldConfig::quick(11));
            let cfg = CampaignConfig {
                days: 1,
                experiments_per_day: 2,
                spec: ExperimentSpec::light(),
                external_probe_day: Some(0),
            };
            run_campaign_with(&mut world, &cfg, par)
        };
        let serial = run(Parallelism::Threads(1));
        let sharded = run(Parallelism::Threads(6));
        let odd = run(Parallelism::Threads(4));
        assert_eq!(serial, sharded);
        assert_eq!(serial, odd);
    }

    #[test]
    fn slot_offsets_span_the_day_without_drift() {
        // 7 does not divide 24 h evenly; the remainder must be spread so
        // the last slot still starts within the day and gaps differ by at
        // most one microsecond.
        let n = 7u32;
        let day = SimDuration::from_hours(24).as_micros();
        let offsets: Vec<u64> = (0..n).map(|s| slot_offset(s, n).as_micros()).collect();
        assert_eq!(offsets[0], 0);
        assert!(*offsets.last().unwrap() < day);
        let gaps: Vec<u64> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let (lo, hi) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert!(hi - lo <= 1, "uneven slot gaps: {gaps:?}");
        // The day wraps cleanly into the next day's slot 0.
        assert!(day - offsets.last().unwrap() >= *lo);
        // Even divisors reproduce the exact old schedule.
        assert_eq!(slot_offset(2, 3).as_micros(), day * 2 / 3);
    }

    #[test]
    fn parallelism_resolves_sanely() {
        assert_eq!(Parallelism::Threads(0).resolve(6), 1);
        assert_eq!(Parallelism::Threads(1).resolve(6), 1);
        assert_eq!(Parallelism::Threads(4).resolve(6), 4);
        assert_eq!(Parallelism::Threads(64).resolve(6), 6);
        assert!(Parallelism::Auto.resolve(6) >= 1);
        assert!(Parallelism::Auto.resolve(6) <= 6);
    }
}
