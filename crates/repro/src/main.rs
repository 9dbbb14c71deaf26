//! `repro` — regenerates every table and figure of *Behind the Curtain*
//! (IMC 2014) from a seeded simulated campaign.
//!
//! Usage: see [`USAGE`] (`repro --help` prints it).
//!
//! `serve` binds a real UDP/TCP DNS front end (loopback, kernel ports)
//! over the simulated world and answers until `--max-queries` (or
//! forever). `soak` runs server + load generator + byte-for-byte
//! verification in-process; `soak --endpoints FILE` drives a running
//! `serve` instead, rebuilding its exact world from the handshake file for
//! the ground-truth replay.
//!
//! `--threads N` caps the campaign driver at `N` OS threads (default: one
//! per carrier shard, capped by the machine). Output is byte-identical for
//! every thread count — with or without a fault profile.
//!
//! `--fault-profile cellular` turns on the deterministic chaos layer (link
//! loss/outages/latency spikes plus resolver-side SERVFAILs, truncation,
//! and blackouts) and switches experiments to the hardened client; the
//! `failures` artifact then reports the outcome taxonomy per carrier.
//!
//! Observability: the sim-plane metric registry is exported to
//! `<out>/metrics.json` on every run (suppress with `--no-metrics`);
//! `--metrics` additionally prints the summary table to stdout.
//! `--progress` emits one stderr line per shard-day. All wall-clock
//! readings (stage timings, events/sec) come from the host-plane profiler
//! and are reported on stderr only, after the run; `--quiet` silences
//! stderr reporting entirely.
//!
//! Text goes to stdout; CSV series and the raw dataset tables go to the
//! output directory (default `results/`).

use cdns::measure::{
    CampaignConfig, ExperimentSpec, FaultProfile, Parallelism, ProgressEvent, WorldConfig,
};
use cdns::{figures, Study, StudyConfig};
use repro::host::{Profiler, Stage};
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::str::FromStr;

mod serving;

/// What `repro --help` prints; the artifact ids follow it, from
/// [`figures::ARTIFACTS`].
const USAGE: &str = "\
usage: repro [ARTIFACT... | all] [OPTIONS]
       repro serve [OPTIONS]
       repro soak [OPTIONS]

Each mode rejects, by name, an option it does not use (exit 2).

World (campaign, serve, soak):
  --scale quick|standard|full            world and campaign size (default: standard)
  --seed N                               master seed (default: 2014)
  --ecs                                  deploy EDNS client-subnet (RFC 7871)
  --era lte|3g                           network era (default: lte)
  --fault-profile none|cellular|stress   deterministic fault injection (default: none)

Campaign:
  --out DIR                              output directory (default: results;
                                         serve: where its endpoints file goes)
  --threads N                            campaign threads (default: one per carrier shard)
  --metrics                              print the metrics summary table to stdout
  --no-metrics                           do not write <out>/metrics.json
  --progress                             one stderr line per shard-day
  --quiet                                silence stderr reporting (every mode)

Serving plane (serve, soak):
  --endpoints PATH                       serve: write the endpoints handshake file
                                         (default: <out>/serve-endpoints.txt);
                                         soak: drive the running server that
                                         wrote it, over the world it names
  --max-queries N                        serve: stop after N answers (default: never)
  --queries N                            soak: scripted queries (default: 10000)
  --chaos off|mild|stress                soak: wire chaos (default: off)
  --profile-out PATH                     soak: write the host-plane profile JSON
  --metrics-out PATH                     soak without --endpoints: write the
                                         server's registry JSON
  -h, --help                             print this help
";

struct Args {
    targets: Vec<String>,
    scale: String,
    seed: u64,
    out: PathBuf,
    ecs: bool,
    three_g: bool,
    threads: Option<usize>,
    fault_profile: FaultProfile,
    metrics_table: bool,
    write_metrics: bool,
    progress: bool,
    quiet: bool,
    serve: serving::ServeArgs,
}

/// The value after `flag`, parsed as `T`.
fn value<T>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|e| format!("bad value '{raw}' for {flag}: {e}"))
}

/// The modes `repro` runs in, as bits of an option's [`OPTIONS`] entry.
const CAMPAIGN: u8 = 1;
const SERVE: u8 = 2;
/// `soak` with a server of its own.
const SOAK: u8 = 4;
/// `soak --endpoints`: drives a server already running, over that
/// server's world, whose registry stays in that process.
const DRIVE: u8 = 8;
/// The modes that build a world from these options.
const WORLD: u8 = CAMPAIGN | SERVE | SOAK;

/// Which modes use each option. Any other mode rejects it by name before
/// a world is built, so no option is silently ignored.
const OPTIONS: [(&str, u8); 17] = [
    ("--scale", WORLD),
    ("--seed", WORLD),
    ("--ecs", WORLD),
    ("--era", WORLD),
    ("--fault-profile", WORLD),
    ("--out", CAMPAIGN | SERVE),
    ("--threads", CAMPAIGN),
    ("--metrics", CAMPAIGN),
    ("--no-metrics", CAMPAIGN),
    ("--progress", CAMPAIGN),
    ("--quiet", WORLD | DRIVE),
    ("--endpoints", SERVE | DRIVE),
    ("--max-queries", SERVE),
    ("--queries", SOAK | DRIVE),
    ("--chaos", SOAK | DRIVE),
    ("--profile-out", SOAK | DRIVE),
    ("--metrics-out", SOAK),
];

/// The first of `options` that `mode` does not use, with the reason.
fn inapplicable(options: &[String], mode: u8) -> Option<String> {
    let flag = options.iter().find(|o| {
        OPTIONS
            .iter()
            .find(|(name, _)| name == o)
            .is_none_or(|&(_, modes)| modes & mode == 0)
    })?;
    Some(match mode {
        CAMPAIGN => format!("{flag} applies only to serve and soak, not to a campaign"),
        SERVE => format!("{flag} does not apply to serve"),
        SOAK => format!("{flag} does not apply to soak"),
        _ => format!(
            "{flag} does not apply to soak --endpoints, which drives a server already running"
        ),
    })
}

fn parse_args() -> Result<Args, String> {
    let mut targets = Vec::new();
    let mut options = Vec::new();
    let mut scale = "standard".to_string();
    let mut seed = 2014u64;
    let mut out = PathBuf::from("results");
    let mut ecs = false;
    let mut three_g = false;
    let mut threads = None;
    let mut fault_profile = FaultProfile::None;
    let mut metrics_table = false;
    let mut write_metrics = true;
    let mut progress = false;
    let mut quiet = false;
    let mut endpoints = None;
    let mut max_queries = None;
    let mut soak_queries = 10_000u64;
    let mut profile_out = None;
    let mut metrics_out = None;
    let mut chaos = loadgen::ChaosProfile::Off;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg.starts_with('-') {
            options.push(arg.clone());
        }
        match arg.as_str() {
            "--ecs" => ecs = true,
            "--metrics" => metrics_table = true,
            "--no-metrics" => write_metrics = false,
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--fault-profile" => {
                let name: String = value(&mut it, "--fault-profile")?;
                fault_profile = FaultProfile::parse(&name).ok_or(format!(
                    "unknown fault profile '{name}' (none|cellular|stress)"
                ))?;
            }
            "--era" => {
                let era: String = value(&mut it, "--era")?;
                three_g = match era.as_str() {
                    "3g" => true,
                    "lte" => false,
                    other => return Err(format!("unknown era '{other}' (lte|3g)")),
                };
            }
            "--scale" => scale = value(&mut it, "--scale")?,
            "--seed" => seed = value(&mut it, "--seed")?,
            "--out" => out = value(&mut it, "--out")?,
            "--threads" => threads = Some(value(&mut it, "--threads")?),
            "--endpoints" => endpoints = Some(value(&mut it, "--endpoints")?),
            "--max-queries" => max_queries = Some(value(&mut it, "--max-queries")?),
            "--queries" => soak_queries = value(&mut it, "--queries")?,
            "--profile-out" => profile_out = Some(value(&mut it, "--profile-out")?),
            "--metrics-out" => metrics_out = Some(value(&mut it, "--metrics-out")?),
            "--chaos" => {
                let name: String = value(&mut it, "--chaos")?;
                chaos = loadgen::ChaosProfile::parse(&name)
                    .ok_or(format!("unknown chaos profile '{name}' (off|mild|stress)"))?;
            }
            "--help" | "-h" => {
                let ids: Vec<&str> = figures::ARTIFACTS.iter().map(|(id, _)| *id).collect();
                print!("{USAGE}\nArtifacts (default: all):\n  {}\n", ids.join(" "));
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}' (see --help)"));
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    // Every target and option is checked here, before a world is built or
    // a file written. `serve` and `soak` are modes, valid only in first
    // place.
    let mode = match targets[0].as_str() {
        "serve" => SERVE,
        "soak" if endpoints.is_some() => DRIVE,
        "soak" => SOAK,
        _ => CAMPAIGN,
    };
    for t in &targets[usize::from(mode != CAMPAIGN)..] {
        if t != "all" && !figures::ARTIFACTS.iter().any(|(id, _)| id == t) {
            return Err(format!("unknown artifact '{t}' (see --help)"));
        }
    }
    if let Some(e) = inapplicable(&options, mode) {
        return Err(e);
    }
    let serve = serving::ServeArgs {
        endpoints,
        max_queries,
        queries: soak_queries,
        profile_out,
        metrics_out,
        chaos,
        quiet,
    };
    Ok(Args {
        targets,
        scale,
        seed,
        out,
        ecs,
        three_g,
        threads,
        fault_profile,
        metrics_table,
        write_metrics,
        progress,
        quiet,
        serve,
    })
}

fn config_for(scale: &str, seed: u64) -> Result<StudyConfig, String> {
    match scale {
        // Tiny: CI-sized smoke run.
        "quick" => Ok(StudyConfig::quick(seed)),
        // Standard: paper-scale world, six-week campaign at 4 h cadence.
        "standard" => Ok(StudyConfig::standard(seed)),
        // Full: paper-scale world, five months at 2 h cadence (slow).
        "full" => Ok(StudyConfig {
            world: WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            campaign: CampaignConfig {
                days: 150,
                experiments_per_day: 12,
                spec: ExperimentSpec::default(),
                external_probe_day: Some(75),
            },
            parallelism: Parallelism::Auto,
        }),
        other => Err(format!("unknown scale '{other}' (quick|standard|full)")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };
    let mut config = match config_for(&args.scale, args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };
    config.world.ecs = args.ecs;
    config.world.three_g_era = args.three_g;
    config.world.fault_profile = args.fault_profile;
    if let Some(n) = args.threads {
        config.parallelism = Parallelism::Threads(n);
    }
    // The serving plane: a live socket front end over the same world the
    // batch campaign uses. Exits directly — artifacts are batch-only.
    match args.targets.first().map(String::as_str) {
        Some("serve") => {
            let endpoints = args
                .serve
                .endpoints
                .clone()
                .unwrap_or_else(|| args.out.join("serve-endpoints.txt"));
            std::process::exit(serving::run_serve(config.world, &endpoints, &args.serve))
        }
        Some("soak") => {
            let target = match &args.serve.endpoints {
                None => serving::Target::InProcess(config.world),
                Some(path) => match serving::read_endpoints(path) {
                    Ok(eps) => serving::Target::Running(eps),
                    Err(e) => {
                        eprintln!("repro: {e}");
                        std::process::exit(2);
                    }
                },
            };
            std::process::exit(serving::run_soak(target, &args.serve))
        }
        _ => {}
    }
    let mut prof = Profiler::new(!args.quiet);
    if !args.quiet {
        if args.ecs {
            eprintln!("repro: ECS (RFC 7871) deployment enabled");
        }
        if args.three_g {
            eprintln!("repro: building the pre-LTE (Xu et al.) era");
        }
        if args.fault_profile.is_active() {
            eprintln!(
                "repro: fault profile '{}' active (hardened client path engaged)",
                args.fault_profile.label()
            );
        }
        eprintln!(
            "repro: building world (scale={}, seed={}) ...",
            args.scale, args.seed
        );
    }

    let build = Stage::begin("build world");
    let mut study = Study::new(config);
    prof.record(build.end());
    if !args.quiet {
        eprintln!(
            "repro: world ready ({} nodes: {} core, {} stubs); running campaign ({} days x {}/day x {} devices, {} threads) ...",
            study.world.node_count(),
            study.world.backbone.routes.core_count(),
            study.world.node_count() - study.world.backbone.routes.core_count(),
            study.campaign.days,
            study.campaign.experiments_per_day,
            study.world.device_count(),
            study.parallelism.resolve(study.world.carrier_count()),
        );
    }

    let tick = |ev: ProgressEvent<'_>| {
        eprintln!(
            "repro: [shard {}] {} day {}/{} — {} records, {} events",
            ev.shard,
            ev.carrier,
            ev.day + 1,
            ev.days,
            ev.records,
            ev.events
        );
    };
    let progress: Option<&cdns::measure::ProgressFn> = if args.progress && !args.quiet {
        Some(&tick)
    } else {
        None
    };
    let campaign = Stage::begin("campaign");
    let run = study.run_observed(progress);
    let dataset = run.dataset;
    let events = study.world.total_events();
    prof.record_with_rates(
        campaign.end(),
        &[
            (events, "events"),
            (dataset.records.len() as u64, "experiments"),
        ],
    );
    let per_shard: Vec<u64> = study
        .world
        .shards
        .iter()
        .map(|s| s.net.stats.events)
        .collect();
    prof.shard_imbalance("events", &per_shard);
    prof.note(format!(
        "{} experiments, {} resolutions, {} engine events",
        dataset.records.len(),
        dataset.resolution_count(),
        events,
    ));

    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("repro: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    // Raw dataset tables.
    if let Err(e) = dataset.write_csvs(&args.out) {
        eprintln!("repro: cannot write raw tables: {e}");
    }
    // Sim-plane metrics: deterministic bytes, part of the replay contract.
    if args.write_metrics {
        let path = args.out.join("metrics.json");
        if let Err(e) = fs::write(&path, run.metrics.to_json()) {
            eprintln!("repro: cannot write {}: {e}", path.display());
        }
    }

    let run_all = args.targets.iter().any(|t| t == "all");
    let artifacts = if run_all {
        figures::all_artifacts(&dataset)
    } else {
        // parse_args admitted only known ids.
        args.targets
            .iter()
            .filter_map(|t| figures::artifact_by_id(&dataset, t))
            .collect()
    };
    for a in &artifacts {
        println!("{}", a.text);
        if let Some(csv) = &a.csv {
            let path = args.out.join(format!("{}.csv", a.id));
            if let Err(e) = fs::write(&path, csv) {
                eprintln!("repro: cannot write {}: {e}", path.display());
            }
        }
    }
    // The metrics summary table is opt-in stdout: the default stream stays
    // byte-stable for consumers that parse artifact text.
    if args.metrics_table {
        print!("{}", run.metrics.render_table("campaign vitals"));
    }
    if !args.quiet {
        let report = prof.report();
        if !report.is_empty() {
            eprint!("repro: host-plane profile\n{report}");
        }
        eprintln!(
            "repro: wrote {} artifacts + raw tables to {}",
            artifacts.len(),
            args.out.display()
        );
    }
}
