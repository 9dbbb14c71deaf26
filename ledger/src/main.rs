//! `ledger` — the repo's benchmark: five workloads, end-to-end metrics, and
//! a per-layer cost ledger measured from outside the program.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run, in this process
//! ledger [--seed N] [--workload NAME] [--out PATH]           every workload, one child process per run
//! ledger --smoke [...]                                       1/20 size, one repetition, no bounds
//! ledger --agree A.json B.json                               compare two result files
//! ```
//!
//! One run is one workload in a fresh process. Untraced (`--trace 0`) it
//! repeats the workload — world or server rebuilt from the seed every time,
//! fixed op counts so every count repeats exactly — until the timed phases
//! add up to `--seconds`, and reports each end-to-end metric as the median
//! over repetitions. Traced (`--trace 1`) it runs one untraced and one
//! traced repetition plus the micro-loops, prints the ledger line and
//! reports the per-layer metrics. The last line of standard output is the
//! result object the driver reads. See `ledger/README.md`.

#![forbid(unsafe_code)]

mod agree;
mod campaign;
mod core;
mod host;
mod json;
mod layers;
mod rep;
mod spec;
mod stats;
mod trace;
mod wire;

use json::Json;
use layers::Layers;
use rep::{Ctx, Rep};
use spec::{Workload, END_TO_END, MAX_UNATTRIBUTED_FRAC, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Trace;

/// `run_seconds` in BENCHMARK.json: five repetitions of about 2.6 s. The
/// issue asked for seven; the driver's cap on total time (114 runs in
/// 3420 s) leaves room for five, its stated floor.
const DEFAULT_SECONDS: f64 = 13.0;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH] | --agree A.json B.json | --benchmark-json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2014,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        agree: None,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--agree" => {
                args.agree = Some((
                    PathBuf::from(value("two paths")?),
                    PathBuf::from(value("two paths")?),
                ));
            }
            "--benchmark-json" => args.benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json` as the driver's contract wants it, written from `spec`
/// so the names, units, bounds and reasons live in one place.
fn benchmark_json() -> String {
    let section = |name: &str, items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|item| format!("    {item}")).collect();
        format!("  \"{name}\": [\n{}\n  ]", lines.join(",\n"))
    };
    let command = ["cargo", "run", "--release", "--quiet", "--offline"]
        .into_iter()
        .chain(["--manifest-path", "ledger/Cargo.toml", "--"]);
    let workloads = Workload::ALL
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ])
    });
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"ledger\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n{},\n{},\n{}\n}}\n",
        Json::Arr(command.map(Json::str).collect()),
        section("workloads", workloads.to_vec()),
        section("end_to_end", end_to_end.collect()),
        section("per_layer", per_layer.collect()),
    )
}

/// Where the span dumps and the default result file go: `<target>/ledger/`,
/// beside the directory this binary was built into.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("ledger")))
        .unwrap_or_else(|| PathBuf::from("target/ledger"))
}

fn run_rep(ctx: &Ctx, trace: Option<&mut Trace>, layers: &mut Layers) -> Result<Rep, String> {
    let calib_ms = host::calib_ms();
    let mut rep = match ctx.workload {
        Workload::Campaign => campaign::run(ctx, trace, layers),
        Workload::CoreMix | Workload::CoreMiss => core::run(ctx, trace, layers),
        Workload::WireUdp | Workload::WireOpen => {
            wire::run(ctx, trace, layers).map_err(|e| format!("{}: {e}", ctx.workload.name()))?
        }
    };
    rep.calib_ms = calib_ms;
    Ok(rep)
}

/// How many repetitions one run may set aside and run again.
///
/// The wire workloads need about ten threads on the two shared vCPUs of the
/// reference box. When the host holds the vCPU under the bridge or under the
/// harness's receiver for some 100 ms while the sender keeps to its schedule
/// on the other, a carrier's backlog passes `max_inflight` and the server
/// sheds, or a socket buffer fills and the kernel drops; neither says
/// anything about the program, and a transcript with lost datagrams cannot
/// be replayed exactly. Such a repetition is reported and run again. A
/// server that really cannot keep up disturbs every repetition, runs out of
/// re-runs, and fails the run with the queries it lost.
const MAX_RERUNS: u32 = 3;

/// `run_rep`, again for as long as the host disturbed it and `reruns` last.
fn undisturbed_rep(
    ctx: &Ctx,
    mut trace: Option<&mut Trace>,
    layers: &mut Layers,
    reruns: &mut u32,
) -> Result<Rep, String> {
    loop {
        if let Some(trace) = trace.as_deref_mut() {
            trace.clear();
        }
        let rep = run_rep(ctx, trace.as_deref_mut(), layers)?;
        if rep.disturbed == 0 || *reruns == MAX_RERUNS {
            return Ok(rep);
        }
        *reruns += 1;
        eprintln!(
            "ledger: {}: {} of {} queries shed or unanswered; repetition set aside and run again ({} of {MAX_RERUNS})",
            ctx.workload.name(),
            rep.disturbed,
            rep.attempted,
            *reruns
        );
    }
}

/// Root spans that tile the timed phase of a serial workload. On the wire
/// several `wire.rtt` spans overlap (six in flight, or a schedule), so the
/// wall has no residual to speak of there and the latency is split instead.
fn timed_roots(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Campaign => &["measure.campaign", "analysis.artifacts", "obs.export"],
        Workload::CoreMix | Workload::CoreMiss => {
            &["serve.classify", "serve.admit", "serve.handle"]
        }
        Workload::WireUdp | Workload::WireOpen => &[],
    }
}

/// The ledger line: the traced repetition's cost per op, split into the
/// spans that add up to it.
fn ledger_line(w: Workload, traced: &Rep, trace: &Trace, layers: &Layers) -> String {
    let ops = traced.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let per_op = traced.wall_s * 1e6 / ops;
    let unattributed = per_op * get("bench.unattributed_frac");
    let engine = format!(
        "{:.1} ev x {:.3} us",
        get("netsim.events_per_op"),
        get("netsim.ns_per_event") / 1e3
    );
    match w {
        Workload::Campaign => format!(
            "campaign {per_op:.1} us/op = measure.campaign.self {:.2} + measure.shard_day {:.1} ({engine}) + analysis.artifacts {:.2} + obs.export {:.3} + unattributed {unattributed:.2}",
            us(trace.self_ns("measure.campaign")),
            us(trace.total_ns("measure.shard_day")),
            us(trace.total_ns("analysis.artifacts")),
            us(trace.total_ns("obs.export")),
        ),
        Workload::CoreMix | Workload::CoreMiss => format!(
            "{} {per_op:.2} us/op = serve.classify {:.3} + serve.admit {:.3} + serve.self {:.2} + dnssim.resolve {:.2} ({engine}) + unattributed {unattributed:.2}",
            w.name(),
            us(trace.total_ns("serve.classify")),
            us(trace.total_ns("serve.admit")),
            get("serve.self_us"),
            get("dnssim.resolve_us"),
        ),
        Workload::WireUdp | Workload::WireOpen => format!(
            "{} {per_op:.1} us/op wall; latency p50 {:.1} us = loadgen.null_rtt {:.1} + serve.handle {:.1} (serve.self {:.2} + dnssim.resolve {:.2}: {engine}) + serve.wire_overhead {:.1}",
            w.name(),
            traced.latency.map_or(0.0, |l| l.p50_us),
            get("loadgen.null_rtt_us"),
            get("serve.handle_us"),
            get("serve.self_us"),
            get("dnssim.resolve_us"),
            get("serve.wire_overhead_us"),
        ),
    }
}

fn rep_json(rep: &Rep) -> Json {
    let mut pairs = vec![
        ("calib_ms", Json::Num(rep.calib_ms)),
        ("setup_s", Json::Num(rep.setup_s)),
        ("wall_s", Json::Num(rep.wall_s)),
        ("ops", Json::Num(rep.ops as f64)),
        ("events", Json::Num(rep.events as f64)),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("digest", Json::str(&rep.digest)),
    ];
    if let Some(l) = rep.latency {
        pairs.extend([
            ("latency_samples", Json::Num(l.samples as f64)),
            ("latency_p50_us", Json::Num(l.p50_us)),
            ("latency_p99_us", Json::Num(l.p99_us)),
            ("latency_p99_whole_us", Json::Num(l.p99_whole_us)),
            ("latency_p999_us", Json::Num(l.p999_us)),
            ("latency_max_us", Json::Num(l.max_us)),
        ]);
    }
    Json::obj(pairs)
}

/// One run of one workload in this process. Prints every metric by name
/// with its unit, a `{"detail": …}` line carrying every repetition's raw
/// values, and last the result object.
fn run_single(ctx: &Ctx, seconds: f64, traced: bool) -> Result<bool, String> {
    let name = ctx.workload.name();
    let load_before = host::loadavg();
    let mut reps: Vec<Rep> = Vec::new();
    let mut layers = Layers::new();
    let mut ledger = None;
    let mut reruns = 0;

    if traced {
        reps.push(undisturbed_rep(ctx, None, &mut layers, &mut reruns)?);
        let mut trace = Trace::new(4 * ctx.workload.queries(ctx.smoke) as usize + 64);
        let rep = undisturbed_rep(ctx, Some(&mut trace), &mut layers, &mut reruns)?;
        let roots: u64 = timed_roots(ctx.workload)
            .iter()
            .map(|r| trace.total_ns(r))
            .sum();
        let unattributed = match roots {
            0 => 0.0,
            ns => (1.0 - ns as f64 / 1e9 / rep.wall_s).max(0.0),
        };
        layers.insert("bench.unattributed_frac", unattributed);
        layers.insert(
            "bench.trace_overhead_frac",
            rep.wall_s / reps[0].wall_s - 1.0,
        );
        if let Some(l) = rep.latency {
            layers.insert("bench.latency_p999_us", l.p999_us);
            if !ctx.workload.gates_latency() {
                layers.insert("bench.open_latency_p50_us", l.p50_us);
                layers.insert("bench.open_latency_p99_us", l.p99_us);
            }
        }
        let line = ledger_line(ctx.workload, &rep, &trace, &layers);
        println!("{line}");
        ledger = Some(line);
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        let keep_every = (rep.attempted / 1_000).max(1) as u32;
        match trace.dump(&path, name, keep_every) {
            Ok(()) => eprintln!(
                "ledger: {} spans, every {keep_every}th op dumped to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
        }
        reps.push(rep);
    } else {
        // A repetition with failed ops has failed the run: nothing after it
        // is worth measuring, and one that lost its queries is over too soon
        // to use up `seconds`.
        let mut timed = 0.0;
        while reps
            .last()
            .is_none_or(|r| r.failed == 0 && !ctx.smoke && timed < seconds)
        {
            let rep = undisturbed_rep(ctx, None, &mut layers, &mut reruns)?;
            timed += rep.wall_s;
            reps.push(rep);
        }
    }

    // Fixed op counts: every repetition must produce the same bytes at the
    // same cost in engine events. One that does not is wrong throughout.
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    for r in &reps[1..] {
        let first = &reps[0];
        if (r.ops, r.events, &r.digest) != (first.ops, first.events, &first.digest) {
            eprintln!(
                "ledger: {name}: repetitions disagree: {} ops / {} events / {} vs {} / {} / {}",
                r.ops, r.events, r.digest, first.ops, first.events, first.digest
            );
            failed = (failed + r.attempted).min(attempted);
        }
    }
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    let calib: Vec<f64> = reps.iter().map(|r| r.calib_ms).collect();
    let calib_spread = stats::rel_range(&calib);
    let mut correct = failed == 0;

    let mut metrics: Vec<(&str, &str, Vec<f64>)> = Vec::new();
    if traced {
        layers.insert("bench.calib_spread", calib_spread);
        layers.insert("bench.fail_frac", fail_frac);
        layers.insert("bench.reruns", reruns as f64);
        let unattributed = layers["bench.unattributed_frac"];
        if unattributed > MAX_UNATTRIBUTED_FRAC {
            eprintln!("ledger: {name}: {unattributed:.3} of the traced wall is outside every span (limit {MAX_UNATTRIBUTED_FRAC})");
            correct = false;
        }
        for m in &PER_LAYER {
            metrics.push((
                m.name,
                m.unit,
                vec![layers.get(m.name).copied().unwrap_or(0.0)],
            ));
        }
    } else {
        for m in &END_TO_END {
            let values: Vec<f64> = match m.name {
                "setup_s" => reps.iter().map(|r| r.setup_s).collect(),
                "ops_per_s" => reps.iter().map(Rep::ops_per_s).collect(),
                "latency_p50_us" => reps
                    .iter()
                    .map(|r| r.gated_latency_us(ctx.workload).0)
                    .collect(),
                "latency_p99_us" => reps
                    .iter()
                    .map(|r| r.gated_latency_us(ctx.workload).1)
                    .collect(),
                "peak_rss_mb" => vec![host::peak_rss_mb()],
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((m.name, m.unit, values));
        }
    }

    let mut detail_metrics = Vec::new();
    let mut result_metrics = Vec::new();
    for (metric, unit, values) in &metrics {
        let [q1, value, q3] = stats::quartiles(values);
        match values.len() {
            1 => println!("{name} {metric} = {value} {unit}"),
            n => println!("{name} {metric} = {value} {unit} (q1 {q1}, q3 {q3}, n={n})"),
        }
        let entry = [("value", Json::Num(value)), ("unit", Json::str(*unit))];
        result_metrics.push((*metric, Json::obj(entry.clone())));
        detail_metrics.push((
            *metric,
            Json::obj(entry.into_iter().chain([
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("values", Json::nums(values)),
            ])),
        ));
    }
    println!("{name} fail_frac = {fail_frac} ratio ({failed} of {attempted} ops)");
    println!(
        "{name} calib_spread = {calib_spread} ratio (n={})",
        calib.len()
    );
    println!("{name} reruns = {reruns} count (of {MAX_RERUNS})");

    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("trace", Json::Num(traced as u8 as f64)),
        ("smoke", Json::Bool(ctx.smoke)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("loadavg_before", Json::str(load_before)),
        ("loadavg_after", Json::str(host::loadavg())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("fail_frac", Json::Num(fail_frac)),
        ("calib_spread", Json::Num(calib_spread)),
        ("reruns", Json::Num(reruns as f64)),
        (
            "exact",
            Json::obj([
                ("ops", Json::Num(reps[0].ops as f64)),
                ("events", Json::Num(reps[0].events as f64)),
                ("digest", Json::str(&reps[0].digest)),
            ]),
        ),
        ("ledger", ledger.map_or(Json::Null, Json::Str)),
        ("metrics", Json::obj(detail_metrics)),
        (
            "repetitions",
            Json::Arr(reps.iter().map(rep_json).collect()),
        ),
    ]);
    println!("{}", Json::obj([("detail", detail)]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(result_metrics)),
        ])
    );
    Ok(correct)
}

/// Every workload (or the one named), each run in a fresh child process so
/// peak memory and allocator state do not leak between them. Collects the
/// children's detail lines into one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        if args.workload.is_some_and(|only| only != w) {
            continue;
        }
        let mut entry = vec![("workload", Json::str(w.name()))];
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            all_correct &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut detail = Json::Null;
            for line in stdout.lines() {
                if line.starts_with("{\"detail\"") {
                    let parsed =
                        Json::parse(line).map_err(|e| format!("{} detail line: {e}", w.name()))?;
                    detail = parsed.get("detail").cloned().unwrap_or(Json::Null);
                } else if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            if detail == Json::Null {
                return Err(format!(
                    "{} (--trace {trace}) printed no detail line",
                    w.name()
                ));
            }
            entry.push((key, detail));
        }
        workloads.push(Json::obj(entry));
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("ledger-{}.json", args.seed)));
    let file = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{file}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("ledger: wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.agree, args.workload, args.trace) {
        _ if args.benchmark_json => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        (Some((a, b)), _, _) => agree::run(a, b),
        (None, Some(workload), Some(traced)) => {
            let ctx = Ctx {
                workload,
                seed: args.seed,
                smoke: args.smoke,
            };
            run_single(&ctx, args.seconds, traced)
        }
        _ => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
