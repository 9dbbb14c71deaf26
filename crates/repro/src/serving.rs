//! `repro serve` / `repro soak` — the live serving plane.
//!
//! `serve` binds one UDP socket and one TCP listener per carrier on
//! loopback, writes the endpoints handshake file, and answers real RFC
//! 1035 queries out of the simulated world until `--max-queries` answers
//! (or forever). `soak` runs the whole loop in-process: server up, the
//! deterministic load generator drives the scripted mix over real
//! sockets, every wire answer is replayed into a ground-truth core and
//! compared byte-for-byte, and the host-plane profile is exported. With
//! `--endpoints`, `soak` drives a `serve` running in another process and
//! rebuilds the ground truth from the world its handshake file names.

use cdns::measure::WorldConfig;
use loadgen::{build_script, render_profile_json, ChaosProfile, DriverConfig, MixConfig};
use repro::host::{Profiler, Stage};
use serve::{DnsServer, Endpoints};
use std::fs;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Knobs shared by `repro serve` and `repro soak`.
pub struct ServeArgs {
    /// serve: where to write the endpoints handshake file (None = the
    /// default under `--out`); soak: the file of the server to drive.
    pub endpoints: Option<PathBuf>,
    /// Stop after this many answered queries (serve mode; None = forever).
    pub max_queries: Option<u64>,
    /// Total scripted queries (soak mode).
    pub queries: u64,
    /// Where to write the soak profile JSON (None = skip).
    pub profile_out: Option<PathBuf>,
    /// Where to write the server's counter registry as JSON (None = skip).
    pub metrics_out: Option<PathBuf>,
    /// Wire-chaos profile the load generator interleaves (soak mode).
    pub chaos: ChaosProfile,
    /// Silence stderr reporting.
    pub quiet: bool,
}

/// `repro serve`: bind, publish endpoints, answer until done. Returns a
/// process exit code.
pub fn run_serve(config: WorldConfig, endpoints: &Path, args: &ServeArgs) -> i32 {
    let mut prof = Profiler::new(!args.quiet);
    let bind_stage = Stage::begin("serve bind");
    let server = match DnsServer::start(config, Ipv4Addr::LOCALHOST) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro serve: cannot bind: {e}");
            return 1;
        }
    };
    prof.record(bind_stage.end());

    if let Some(dir) = endpoints.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = fs::create_dir_all(dir);
        }
    }
    let eps = server.endpoints();
    if let Err(e) = fs::write(endpoints, eps.render()) {
        eprintln!("repro serve: cannot write {}: {e}", endpoints.display());
        return 1;
    }
    if !args.quiet {
        for c in &eps.carriers {
            eprintln!(
                "repro serve: carrier {} '{}' udp {} tcp {} ({} devices)",
                c.index, c.name, c.udp, c.tcp, c.devices
            );
        }
        eprintln!(
            "repro serve: endpoints written to {}; serving{}",
            endpoints.display(),
            match args.max_queries {
                Some(n) => format!(" until {n} answers"),
                None => " until killed".to_string(),
            }
        );
    }

    let serve_stage = Stage::begin("serve loop");
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if let Some(max) = args.max_queries {
            if server.answered() >= max {
                break;
            }
        }
    }
    let answered = server.answered();
    prof.record_with_rates(serve_stage.end(), &[(answered, "answers")]);

    let report = server.stop();
    println!(
        "serve: answered {} queries ({} rejected, {} dropped, {} shed, {} evicted, {} drained, {} engine events)",
        report.answered,
        report.rejected,
        report.errors,
        report.shed,
        report.evicted,
        report.drained,
        report.events
    );
    print!("{}", report.registry.render_table("serve vitals"));
    if !args.quiet {
        let text = prof.report();
        if !text.is_empty() {
            eprint!("repro serve: host-plane profile\n{text}");
        }
    }
    0
}

/// The server `repro soak` loads.
pub enum Target {
    /// One bound in this process over this world.
    InProcess(WorldConfig),
    /// The running `repro serve` that wrote these endpoints.
    Running(Endpoints),
}

/// Reads the handshake file a running `repro serve` wrote.
pub fn read_endpoints(path: &Path) -> Result<Endpoints, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Endpoints::parse(&text).map_err(|e| format!("bad endpoints file {}: {e}", path.display()))
}

/// `repro soak`: load generator + ground-truth verification against
/// `target`. Returns a process exit code (nonzero on any mismatch, lost
/// answer or a dead wire).
pub fn run_soak(target: Target, args: &ServeArgs) -> i32 {
    let mut prof = Profiler::new(!args.quiet);
    let (server, eps) = match target {
        Target::Running(eps) => (None, eps),
        Target::InProcess(config) => {
            let bind_stage = Stage::begin("soak bind");
            let server = match DnsServer::start(config, Ipv4Addr::LOCALHOST) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("repro soak: cannot bind: {e}");
                    return 1;
                }
            };
            prof.record(bind_stage.end());
            let eps = server.endpoints().clone();
            (Some(server), eps)
        }
    };
    let mix = MixConfig {
        queries: args.queries,
        ..MixConfig::default()
    };
    if !args.quiet {
        eprintln!(
            "repro soak: {} carriers up; scripting {} queries (miss {}/1000, chaos {})",
            eps.carriers.len(),
            mix.queries,
            mix.miss_per_mille,
            args.chaos.label(),
        );
    }

    let script_stage = Stage::begin("soak script");
    let script = build_script(&eps, &mix);
    prof.record(script_stage.end());

    let wire_stage = Stage::begin("soak wire");
    let cfg = DriverConfig { chaos: args.chaos };
    let driven = match loadgen::drive(&eps, &script, &cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("repro soak: wire driver failed: {e}");
            drop(server.map(DnsServer::stop));
            return 1;
        }
    };
    prof.record_with_rates(wire_stage.end(), &[(driven.stats.answered, "answers")]);
    // The ground-truth replay is host work of its own, not wire time.
    let verify_stage = Stage::begin("soak verify");
    let stats = driven.verify(&eps);
    prof.record_with_rates(verify_stage.end(), &[(stats.answered, "answers")]);

    let report = server.map(DnsServer::stop);
    let profile = render_profile_json(&stats);
    if let Some(path) = &args.profile_out {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = fs::create_dir_all(dir);
            }
        }
        if let Err(e) = fs::write(path, &profile) {
            eprintln!("repro soak: cannot write {}: {e}", path.display());
        }
    }
    if let (Some(path), Some(report)) = (&args.metrics_out, &report) {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = fs::create_dir_all(dir);
            }
        }
        if let Err(e) = fs::write(path, report.registry.to_json()) {
            eprintln!("repro soak: cannot write {}: {e}", path.display());
        }
    }

    println!(
        "soak: {} scripted, {} answered, {} tc-retries, {} wire-timeouts, {} mismatches",
        script.total(),
        stats.answered,
        stats.tc_retries,
        stats.wire_timeouts,
        stats.mismatches
    );
    if args.chaos != ChaosProfile::Off {
        println!(
            "soak: chaos {}: {} injected, {} shed replies ({} retries), {} hostile conns evicted, {} chaos sends unanswered",
            args.chaos.label(),
            stats.chaos_injected,
            stats.shed_replies,
            stats.shed_retries,
            stats.evictions_observed,
            stats.chaos_unanswered
        );
        if let Some(report) = &report {
            println!(
                "soak: server saw {} rejected, {} typed drops, {} shed, {} evicted, {} drained",
                report.rejected, report.errors, report.shed, report.evicted, report.drained
            );
        }
    }
    let served = report.as_ref().map_or(String::new(), |r| {
        format!(
            "; server answered {} ({} engine events)",
            r.answered, r.events
        )
    });
    println!(
        "soak: {:.0} q/s wall, p50 {} us, p99 {} us{served}",
        stats.qps(),
        stats.latency_percentile_us(50),
        stats.latency_percentile_us(99),
    );
    println!(
        "soak: ground truth {}",
        if stats.mismatches == 0 {
            "clean — every wire answer byte-equal to the batch resolver"
        } else {
            "BROKEN — wire answers diverged from the batch resolver"
        }
    );
    if !args.quiet {
        eprintln!("repro soak: host-plane profile (loadgen)\n{profile}");
        if let Some(report) = &report {
            eprint!("{}", report.registry.render_table("serve vitals"));
        }
        let text = prof.report();
        if !text.is_empty() {
            eprint!("repro soak: host-plane profile\n{text}");
        }
    }

    if report.as_ref().is_some_and(|r| r.panicked) {
        eprintln!("repro soak: server bridge panicked");
        return 1;
    }
    // Zero lost well-formed answers: every scripted query must complete.
    if stats.answered != script.total() {
        eprintln!(
            "repro soak: {} scripted queries lost ({} answered of {})",
            script.total() - stats.answered,
            stats.answered,
            script.total()
        );
        return 1;
    }
    if stats.mismatches > 0 || stats.answered == 0 {
        return 1;
    }
    0
}
