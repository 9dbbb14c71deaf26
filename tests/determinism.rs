//! Determinism regression tests: the campaign's exported CSV bytes must be
//! identical for every thread count (sharded execution merges in canonical
//! order), and must actually depend on the seed. The same holds with the
//! chaos layer enabled: a fault profile adds failures, not nondeterminism.
//! The sim-plane metrics registry is part of the same contract: its JSON
//! export is sha256-checked across thread counts and fault profiles.

use behind_the_curtain::measure::{
    build_world, run_campaign_observed, run_campaign_with, CampaignConfig, CampaignRun, Dataset,
    FaultProfile, Outcome, Parallelism,
};
use behind_the_curtain::measure::{ExperimentSpec, WorldConfig};
use behind_the_curtain::obs::{catalog, sha256_hex};
use behind_the_curtain::{Study, StudyConfig};

fn quick_campaign_config() -> CampaignConfig {
    CampaignConfig {
        days: 2,
        experiments_per_day: 3,
        spec: ExperimentSpec::light(),
        external_probe_day: Some(1),
    }
}

fn campaign_with_profile(seed: u64, par: Parallelism, profile: FaultProfile) -> Dataset {
    let mut world = build_world(WorldConfig {
        fault_profile: profile,
        ..WorldConfig::quick(seed)
    });
    run_campaign_with(&mut world, &quick_campaign_config(), par)
}

fn observed_with_profile(seed: u64, par: Parallelism, profile: FaultProfile) -> CampaignRun {
    let mut world = build_world(WorldConfig {
        fault_profile: profile,
        ..WorldConfig::quick(seed)
    });
    run_campaign_observed(&mut world, &quick_campaign_config(), par, None)
}

/// The sha256 of the bytes `repro` writes to `results/metrics.json`.
fn metrics_sha(seed: u64, par: Parallelism, profile: FaultProfile) -> String {
    sha256_hex(
        observed_with_profile(seed, par, profile)
            .metrics
            .to_json()
            .as_bytes(),
    )
}

fn campaign(seed: u64, par: Parallelism) -> Dataset {
    campaign_with_profile(seed, par, FaultProfile::None)
}

/// All four exported tables, concatenated — the full byte-level surface a
/// downstream consumer sees.
fn csv_bytes(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(ds.lookups_csv().as_bytes());
    out.extend_from_slice(ds.replicas_csv().as_bytes());
    out.extend_from_slice(ds.identities_csv().as_bytes());
    out.extend_from_slice(ds.outcomes_csv().as_bytes());
    out
}

#[test]
fn six_shards_export_byte_identical_csvs_to_single_thread() {
    let serial = campaign(20141105, Parallelism::Threads(1));
    let parallel = campaign(20141105, Parallelism::Threads(6));
    assert_eq!(
        csv_bytes(&serial),
        csv_bytes(&parallel),
        "thread count changed exported bytes"
    );
    // Intermediate thread counts chunk shards unevenly; still identical.
    let chunked = campaign(20141105, Parallelism::Threads(4));
    assert_eq!(csv_bytes(&serial), csv_bytes(&chunked));
    // And the structured dataset itself matches, not just its projection.
    assert_eq!(serial, parallel);
}

#[test]
fn study_runs_are_thread_count_invariant() {
    // The issue's exact scenario: the same quick study, once single-threaded
    // and once with six shards, exports identical CSV bytes.
    let run = |threads: usize| {
        let mut config = StudyConfig::quick(20141105);
        config.parallelism = Parallelism::Threads(threads);
        let ds = Study::new(config).run();
        csv_bytes(&ds)
    };
    assert_eq!(run(1), run(6), "Study output depends on thread count");
}

#[test]
fn auto_parallelism_matches_explicit_threads() {
    let auto = campaign(7, Parallelism::Auto);
    let one = campaign(7, Parallelism::Threads(1));
    assert_eq!(csv_bytes(&auto), csv_bytes(&one));
}

#[test]
fn different_seeds_export_different_csvs() {
    let a = campaign(20141105, Parallelism::Threads(6));
    let b = campaign(20141106, Parallelism::Threads(6));
    assert_ne!(
        csv_bytes(&a),
        csv_bytes(&b),
        "seed does not influence exported bytes"
    );
}

#[test]
fn cellular_fault_profile_is_thread_count_invariant() {
    // Chaos enabled: the fault plan draws from its own per-shard seed lane,
    // so 1, 4, and 6 threads must still export byte-identical CSVs.
    let one = campaign_with_profile(20141105, Parallelism::Threads(1), FaultProfile::Cellular);
    let four = campaign_with_profile(20141105, Parallelism::Threads(4), FaultProfile::Cellular);
    let six = campaign_with_profile(20141105, Parallelism::Threads(6), FaultProfile::Cellular);
    assert_eq!(
        csv_bytes(&one),
        csv_bytes(&four),
        "fault profile broke 4-thread determinism"
    );
    assert_eq!(
        csv_bytes(&one),
        csv_bytes(&six),
        "fault profile broke 6-thread determinism"
    );
    assert_eq!(one, six);
}

#[test]
fn metrics_json_is_byte_identical_across_thread_counts() {
    // metrics.json is part of the byte-identical-replay contract, under
    // both the clean and the chaotic profile: per-shard registries merge
    // in canonical shard order regardless of how shards were chunked
    // across worker threads.
    for profile in [FaultProfile::None, FaultProfile::Cellular] {
        let one = metrics_sha(20141105, Parallelism::Threads(1), profile);
        let four = metrics_sha(20141105, Parallelism::Threads(4), profile);
        let six = metrics_sha(20141105, Parallelism::Threads(6), profile);
        assert_eq!(one, four, "{profile:?}: 4 threads changed metrics.json");
        assert_eq!(one, six, "{profile:?}: 6 threads changed metrics.json");
    }
}

#[test]
fn stress_fault_profile_is_thread_count_invariant() {
    // Stress is the profile that truncates answers and so drives the
    // DNS-over-TCP fallback: the TCP-lite timers on both ends, and the
    // relay deadline, all run through the engine's coalesced wakes.
    let one = observed_with_profile(20141105, Parallelism::Threads(1), FaultProfile::Stress);
    let four = observed_with_profile(20141105, Parallelism::Threads(4), FaultProfile::Stress);
    assert_eq!(
        csv_bytes(&one.dataset),
        csv_bytes(&four.dataset),
        "stress profile broke 4-thread CSV determinism"
    );
    assert_eq!(
        one.metrics.to_json(),
        four.metrics.to_json(),
        "stress profile broke 4-thread metrics.json determinism"
    );
    let recovered = one
        .dataset
        .records
        .iter()
        .flat_map(|r| &r.lookups)
        .filter(|l| l.outcome == Outcome::TruncatedRecovered)
        .count();
    assert!(recovered > 0, "no lookup recovered over TCP under stress");
}

#[test]
fn metrics_json_depends_on_seed_and_fault_profile() {
    // The byte-identity above must not be vacuous: different seeds and
    // different fault profiles have to produce different registries.
    let base = metrics_sha(20141105, Parallelism::Threads(4), FaultProfile::None);
    let seeded = metrics_sha(20141106, Parallelism::Threads(4), FaultProfile::None);
    let chaotic = metrics_sha(20141105, Parallelism::Threads(4), FaultProfile::Cellular);
    assert_ne!(base, seeded, "seed does not reach the metrics registry");
    assert_ne!(base, chaotic, "fault profile does not reach the registry");
}

#[test]
fn registry_vitals_match_the_dataset() {
    // Spot-check the harvest against ground truth: campaign counters must
    // agree with the records they were read from, the substrate families
    // (engine, faults, caches) must all be live, and every exported series
    // must be declared, under its kind, in the metric catalog.
    let run = observed_with_profile(20141105, Parallelism::Threads(6), FaultProfile::Cellular);
    let m = &run.metrics;
    let ds = &run.dataset;
    assert_eq!(
        m.counter_total("campaign.experiments"),
        ds.records.len() as u64
    );
    let lookups: u64 = ds.records.iter().map(|r| r.lookups.len() as u64).sum();
    assert_eq!(m.counter_total("campaign.lookups"), lookups);
    assert_eq!(m.counter_total("dns.lookup.outcomes"), lookups);
    assert!(m.counter_total("net.events") > 0, "engine counters missing");
    assert!(m.counter_total("fault.injected") > 0, "chaos layer unread");
    assert!(
        m.counter_total("net.flow_timeouts") > 0,
        "no flow deadline fired under cellular faults"
    );
    assert!(
        m.counter_total("dns.cache.misses") > 0,
        "cache stats unread"
    );
    assert!(
        m.gauge_peak("net.queue_depth") > 0,
        "queue high-water unset"
    );
    // The engine keeps one service tick per service and instant. Without
    // that, every datagram a resolver handles starts its own chain of
    // ticks, and ticks outnumber sends several times over.
    let by_kind = |kind: &str| -> u64 {
        ds.carrier_names
            .iter()
            .map(|c| {
                m.counter_value(
                    "net.events_by_kind",
                    &[("carrier", c.as_str()), ("kind", kind)],
                )
            })
            .sum()
    };
    let (ticks, sends) = (by_kind("service_tick"), by_kind("send"));
    assert!(sends > 0, "no send events harvested");
    assert!(
        ticks < sends,
        "{ticks} service ticks for {sends} sends: timer wakes are not coalesced"
    );
    assert_eq!(
        catalog::undeclared(m),
        [],
        "exported series missing from obs::catalog::METRICS"
    );
}

#[test]
fn fig7_cache_miss_rate_from_registry_stays_in_band() {
    // Fig 7's subject — how often the carrier-side caches actually miss —
    // read directly from the registry's cache counters instead of being
    // inferred from first-vs-second lookup timings. Pinned against the
    // quick-study value so cache regressions surface here, with a band
    // wide enough to absorb intentional workload tuning.
    let mut config = StudyConfig::quick(20141105);
    config.parallelism = Parallelism::Threads(6);
    let run = Study::new(config).run_observed(None);
    let m = &run.metrics;
    let hits = m.counter_total("dns.cache.hits") + m.counter_total("dns.cache.ambient_hits");
    let misses = m.counter_total("dns.cache.misses");
    assert!(hits + misses > 0, "no cache traffic harvested");
    // Fault-free vitals: fresh hits happen, and flows that complete cancel
    // their deadline.
    assert!(m.counter_total("dns.cache.hits") > 0, "no fresh cache hit");
    assert!(
        m.counter_total("net.flow_timeouts_cancelled") > 0,
        "no flow deadline was ever cancelled"
    );
    let frac = misses as f64 / (hits + misses) as f64;
    // Quick study at seed 20141105 measures 0.427; the registry rate runs
    // above Fig 7's timing-inferred ~20-30% because it also counts probe
    // and upstream traffic that never hits a warm entry.
    assert!(
        (0.32..=0.52).contains(&frac),
        "registry cache-miss fraction {frac:.3} left the pinned band 0.32..=0.52 \
         (quick-study baseline 0.427; paper Fig 7 first-lookup misses ~20%)"
    );
}

#[test]
fn cellular_fault_profile_produces_a_failure_taxonomy() {
    let ds = campaign_with_profile(20141105, Parallelism::Threads(6), FaultProfile::Cellular);
    // Count lookups per outcome across the whole campaign.
    let mut counts = std::collections::BTreeMap::new();
    for r in &ds.records {
        for l in &r.lookups {
            *counts.entry(l.outcome).or_insert(0u64) += 1;
        }
    }
    let distinct_failures = counts.keys().filter(|o| **o != Outcome::Ok).count();
    assert!(
        distinct_failures >= 3,
        "expected >=3 distinct non-ok outcomes under cellular chaos, got {counts:?}"
    );
    // The aggregate CSV carries the same taxonomy.
    let csv = ds.outcomes_csv();
    for (outcome, n) in &counts {
        assert!(*n > 0);
        assert!(
            csv.contains(outcome.label()),
            "outcomes.csv missing {}",
            outcome.label()
        );
    }
}

#[test]
fn completed_flow_backlog_stays_bounded_over_the_campaign() {
    // The engine's completed-outcome map once grew without bound: every
    // fire-and-forget probe parked an outcome nobody would ever poll. The
    // campaign driver now reaps stale outcomes each device slot; the
    // sampled high-water mark must stay at a per-slot scale, not scale
    // with campaign length.
    let run = observed_with_profile(20141105, Parallelism::Threads(6), FaultProfile::Cellular);
    // The gauge must be present (instrumentation alive) …
    assert!(
        run.metrics.to_json().contains("campaign.completed_backlog"),
        "backlog gauge never exported — drain instrumentation dead"
    );
    // … and its high-water mark must stay at per-slot scale: the campaign
    // drivers poll every flow they issue, so anything campaign-scale here
    // means outcomes are leaking past the per-slot reap again.
    let peak = run.metrics.gauge_peak("campaign.completed_backlog");
    assert!(
        peak <= 16,
        "completed-flow backlog high water {peak} exceeds per-slot scale; \
         the per-slot drain is not running"
    );
    // Timeout bookkeeping from the same run: most flows complete early and
    // cancel their timeout; fired timeouts are the exception.
    let cancelled = run.metrics.counter_total("net.flow_timeouts_cancelled");
    let fired = run.metrics.counter_total("net.flow_timeouts");
    assert!(cancelled > 0, "no timeouts were ever cancelled");
    assert!(
        cancelled > fired,
        "cancelled ({cancelled}) should dominate fired ({fired}) timeouts"
    );
}

#[test]
fn fault_free_outputs_do_not_depend_on_the_chaos_layer_existing() {
    // A world built with FaultProfile::None must export exactly the same
    // bytes as one built before the fault layer existed; its plan makes
    // zero RNG draws. (Guarded here by the explicit-profile constructor
    // matching the default-config path.)
    let default_cfg = campaign(20141105, Parallelism::Threads(2));
    let explicit_none =
        campaign_with_profile(20141105, Parallelism::Threads(2), FaultProfile::None);
    assert_eq!(csv_bytes(&default_cfg), csv_bytes(&explicit_none));
    // And the chaos layer changes them when switched on.
    let cellular = campaign_with_profile(20141105, Parallelism::Threads(2), FaultProfile::Cellular);
    assert_ne!(csv_bytes(&default_cfg), csv_bytes(&cellular));
}
