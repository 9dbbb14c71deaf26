//! `campaign`: the batch product behind `repro all`, one thread.

use crate::layers::{self, Layers};
use crate::rep::{Ctx, Rep};
use crate::spec::Workload;
use crate::trace::{SpanId, Trace, NO_PARENT};
use cdns::measure::{CampaignConfig, CampaignRun, Parallelism, ProgressEvent, ProgressFn};
use cdns::obs::sha256_hex;
use cdns::{figures, Study, StudyConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn study(ctx: &Ctx, threads: usize) -> Study {
    let (days, experiments_per_day) = Workload::campaign_shape(ctx.smoke);
    let mut config = StudyConfig::quick(ctx.seed);
    config.campaign = CampaignConfig {
        days,
        experiments_per_day,
        ..CampaignConfig::quick()
    };
    config.parallelism = Parallelism::Threads(threads);
    Study::new(config)
}

/// Runs `f` as a root span when tracing, plainly when not.
fn staged<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, SpanId) {
    match trace {
        Some(trace) => trace.stage(name, f),
        None => (f(), NO_PARENT),
    }
}

/// What the timed phase produced.
struct Outputs {
    run: CampaignRun,
    campaign_span: SpanId,
    wall_s: f64,
    /// sha256 over every artifact and the metrics export: the replay contract.
    digest: String,
    artifact_bytes: usize,
}

/// The timed phase: campaign, every artifact, the metrics export.
fn outputs(
    study: &mut Study,
    progress: Option<&ProgressFn>,
    trace: &mut Option<&mut Trace>,
) -> Outputs {
    let timed = Instant::now();
    let (run, campaign_span) = staged(trace, "measure.campaign", || study.run_observed(progress));
    let (artifacts, _) = staged(trace, "analysis.artifacts", || {
        figures::all_artifacts(&run.dataset)
    });
    let (metrics_json, _) = staged(trace, "obs.export", || run.metrics.to_json());
    let wall_s = timed.elapsed().as_secs_f64();

    let mut all = Vec::new();
    for a in &artifacts {
        all.extend_from_slice(a.id.as_bytes());
        all.extend_from_slice(a.text.as_bytes());
        all.extend_from_slice(a.csv.as_deref().unwrap_or("").as_bytes());
    }
    let artifact_bytes = all.len();
    all.extend_from_slice(metrics_json.as_bytes());
    Outputs {
        run,
        campaign_span,
        wall_s,
        digest: sha256_hex(&all),
        artifact_bytes,
    }
}

/// One repetition. With a trace, the stages become spans (shard-days from
/// the progress ticks) and `layers` receives the campaign's per-layer rows.
pub fn run(ctx: &Ctx, mut trace: Option<&mut Trace>, layers: &mut Layers) -> Rep {
    let started = Instant::now();
    let (mut study, _) = staged(&mut trace, "measure.build_world", || study(ctx, 1));
    let setup_s = started.elapsed().as_secs_f64();
    let expected_records = (study.campaign.days * study.campaign.experiments_per_day) as u64
        * study.world.device_count() as u64;

    // `ProgressFn` is `'static`, so the tick sink is shared, not borrowed.
    let ticks: Arc<Mutex<Vec<Instant>>> = Arc::default();
    let sink = Arc::clone(&ticks);
    let on_tick = move |_: ProgressEvent<'_>| {
        sink.lock()
            .expect("tick sink poisoned")
            .push(Instant::now());
    };
    let progress: Option<&ProgressFn> = trace.is_some().then_some(&on_tick);
    let out = outputs(&mut study, progress, &mut trace);

    let run = &out.run;
    let records = run.dataset.records.len() as u64;
    let ops = run.metrics.counter_total("campaign.lookups");
    let events = study.world.total_events();
    let mut failed = expected_records.abs_diff(records);

    if let Some(trace) = trace {
        // Single-threaded, ticks arrive in shard-then-day order: each one
        // closes the shard-day that began at the previous tick.
        let epoch = trace.epoch();
        let mut prev = trace.spans[out.campaign_span as usize].start_ns;
        for (i, at) in ticks.lock().expect("tick sink poisoned").iter().enumerate() {
            let at = at.duration_since(epoch).as_nanos() as u64;
            trace.push(i as u32, "measure.shard_day", out.campaign_span, prev, at);
            prev = at;
        }

        let ms = |ns: u64| ns as f64 / 1e6;
        let campaign_ns = trace.total_ns("measure.campaign");
        let shard_days: Vec<f64> = trace
            .durations("measure.shard_day")
            .iter()
            .map(|&d| ms(d))
            .collect();
        layers.insert("measure.build_world_ms", setup_s * 1e3);
        layers.insert(
            "measure.us_per_experiment",
            campaign_ns as f64 / 1e3 / records.max(1) as f64,
        );
        layers.insert(
            "measure.shard_day_ms_p50",
            crate::stats::median(&shard_days),
        );
        layers.insert("measure.records", records as f64);
        let busiest = study.world.shards.iter().map(|s| s.net.stats.events).max();
        let mean_events = events as f64 / study.world.shards.len().max(1) as f64;
        layers.insert(
            "measure.shard_imbalance",
            busiest.unwrap_or(0) as f64 / mean_events.max(1.0),
        );
        layers.insert(
            "analysis.artifacts_ms",
            ms(trace.total_ns("analysis.artifacts")),
        );
        layers.insert("analysis.artifact_bytes", out.artifact_bytes as f64);
        layers::registry_counters(layers, &run.metrics, ops);
        // Outside-in, the engine cannot be told from the service handlers it
        // dispatches: the whole campaign span over its events is an upper bound.
        layers.insert(
            "netsim.ns_per_event",
            campaign_ns as f64 / events.max(1) as f64,
        );

        let budget = ctx.micro_budget();
        let carriers: Vec<&str> = run
            .dataset
            .carrier_names
            .iter()
            .map(String::as_str)
            .collect();
        layers::obs(layers, budget, &carriers, &run.metrics);
        // The export measured inside the repetition is the ledger's row.
        layers.insert("obs.export_ms", ms(trace.total_ns("obs.export")));
        layers::queue(layers, budget, run.metrics.gauge_peak("net.queue_depth"));
        layers::cell_and_cdn(layers, budget, &study.world);
        codec_and_cache(ctx, layers, &run.dataset.domains);

        // One extra two-thread campaign: diagnostic on two cores, and its
        // outputs must hash like the one-thread run's.
        let par = outputs(&mut self::study(ctx, 2), None, &mut None);
        layers.insert("measure.par2_speedup", out.wall_s / par.wall_s.max(1e-9));
        if par.digest != out.digest {
            failed += expected_records;
        }
    }

    Rep {
        setup_s,
        wall_s: out.wall_s,
        ops,
        events,
        attempted: expected_records,
        failed,
        digest: out.digest,
        ..Rep::default()
    }
}

/// The campaign's wire bytes never leave the simulation, so the codec and
/// cache loops run on the same exchanges made from outside: each catalog
/// domain resolved once through a device's configured resolver.
fn codec_and_cache(ctx: &Ctx, layers: &mut Layers, domains: &[cdns::dnswire::DnsName]) {
    use cdns::dnssim::{resolve_with, ClientPolicy};
    use cdns::dnswire::builder::QueryBuilder;
    use cdns::dnswire::RecordType;

    let mut world = cdns::measure::build_world(cdns::measure::WorldConfig::quick(ctx.seed));
    let shards = world.shards.len();
    let mut queries = Vec::new();
    let mut replies = Vec::new();
    for (i, domain) in domains.iter().enumerate() {
        let shard = &mut world.shards[i % shards];
        let Some(device) = shard.devices.first() else {
            continue;
        };
        let (node, resolver) = (device.node, device.configured_dns);
        let lookup = resolve_with(
            &mut shard.net,
            node,
            resolver,
            domain,
            RecordType::A,
            &ClientPolicy::classic(),
        );
        if let Some(bytes) = lookup.response.and_then(|m| m.encode().ok()) {
            replies.push(bytes);
        }
        if let Some(q) = QueryBuilder::new(i as u16, domain.to_string(), RecordType::A)
            .recursion_desired(true)
            .build()
            .ok()
            .and_then(|q| q.encode().ok())
        {
            queries.push(q);
        }
    }
    let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    layers::dnswire(layers, ctx.micro_budget(), &query_refs, &replies);
    layers::cache(layers, ctx.micro_budget(), domains, &replies);
}
