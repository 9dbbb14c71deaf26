//! `loadgen` CLI — replay a seed-derived query mix against a running
//! `repro serve` instance.
//!
//! Usage: see [`USAGE`] (`loadgen --help` prints it).
//!
//! `--endpoints` is the file `repro serve` writes. `--verify` rebuilds the
//! server's world from the config echoed in that file and asserts every
//! wire answer byte-equal to the ground truth; any mismatch makes the
//! process exit nonzero.

use loadgen::{build_script, render_profile_json, run, ChaosProfile, DriverConfig, MixConfig};
use serve::Endpoints;
use std::path::PathBuf;

/// What `loadgen --help` prints.
const USAGE: &str = "\
usage: loadgen --endpoints FILE [OPTIONS]

  --endpoints FILE            the handshake file `repro serve` writes (required)
  --queries N                 scripted queries (default: 10000)
  --qps N                     target rate across carriers (default: unpaced)
  --miss-per-mille N          cache-busting fraction (default: 50)
  --verify                    replay every answer into a ground-truth core;
                              any mismatch exits nonzero
  --chaos off|mild|stress     interleave wire chaos (default: off)
  --profile-out FILE          write the host-plane profile JSON
  --quiet                     silence stderr reporting
  -h, --help                  print this help
";

struct Args {
    endpoints: PathBuf,
    queries: u64,
    qps: Option<u64>,
    miss_per_mille: u32,
    verify: bool,
    chaos: ChaosProfile,
    profile_out: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut endpoints = None;
    let mut queries = 10_000u64;
    let mut qps = None;
    let mut miss_per_mille = 50u32;
    let mut verify = false;
    let mut chaos = ChaosProfile::Off;
    let mut profile_out = None;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--endpoints" => {
                endpoints = Some(PathBuf::from(it.next().ok_or("--endpoints needs a path")?))
            }
            "--queries" => {
                queries = it
                    .next()
                    .ok_or("--queries needs a value")?
                    .parse()
                    .map_err(|e| format!("bad query count: {e}"))?;
            }
            "--qps" => {
                qps = Some(
                    it.next()
                        .ok_or("--qps needs a value")?
                        .parse()
                        .map_err(|e| format!("bad qps: {e}"))?,
                );
            }
            "--miss-per-mille" => {
                miss_per_mille = it
                    .next()
                    .ok_or("--miss-per-mille needs a value")?
                    .parse()
                    .map_err(|e| format!("bad fraction: {e}"))?;
            }
            "--verify" => verify = true,
            "--chaos" => {
                let name = it.next().ok_or("--chaos needs a profile (mild|stress)")?;
                chaos = ChaosProfile::parse(&name)
                    .ok_or_else(|| format!("unknown chaos profile '{name}'"))?;
            }
            "--profile-out" => {
                profile_out = Some(PathBuf::from(
                    it.next().ok_or("--profile-out needs a path")?,
                ))
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        endpoints: endpoints.ok_or("--endpoints is required")?,
        queries,
        qps,
        miss_per_mille,
        verify,
        chaos,
        profile_out,
        quiet,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&args.endpoints) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("loadgen: cannot read {}: {e}", args.endpoints.display());
            std::process::exit(2);
        }
    };
    let eps = match Endpoints::parse(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("loadgen: bad endpoints file: {e}");
            std::process::exit(2);
        }
    };
    let mix = MixConfig {
        queries: args.queries,
        miss_per_mille: args.miss_per_mille,
    };
    let script = build_script(&eps, &mix);
    if !args.quiet {
        eprintln!(
            "loadgen: {} queries over {} carriers (seed {}, verify={}, chaos={})",
            script.total(),
            eps.carriers.len(),
            eps.config.seed,
            args.verify,
            args.chaos.label(),
        );
    }
    let cfg = DriverConfig {
        qps: args.qps,
        verify: args.verify,
        chaos: args.chaos,
    };
    let stats = match run(&eps, &script, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: wire run failed: {e}");
            std::process::exit(1);
        }
    };
    let profile = render_profile_json(&stats);
    if let Some(path) = &args.profile_out {
        if let Err(e) = std::fs::write(path, &profile) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
        }
    }
    if !args.quiet {
        eprint!("loadgen: host-plane profile\n{profile}");
    }
    println!(
        "loadgen: {} answered / {} sent, {:.0} qps, p50 {} us, p99 {} us, {} tc-retries, {} timeouts, {} mismatches, {} chaos ({} shed, {} evicted)",
        stats.answered,
        stats.sent,
        stats.qps(),
        stats.latency_percentile_us(50),
        stats.latency_percentile_us(99),
        stats.tc_retries,
        stats.wire_timeouts,
        stats.mismatches,
        stats.chaos_injected,
        stats.shed_replies,
        stats.evictions_observed,
    );
    if stats.mismatches > 0 || (args.verify && stats.answered == 0) {
        std::process::exit(1);
    }
}
