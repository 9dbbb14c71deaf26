//! `core_mix` / `core_miss`: the in-process closed loop over `ServeCore`
//! (classify → admit → handle), plus the two replays every serve workload
//! shares: ground truth on a second core, and `dnssim.resolve` on a shadow
//! world.

use crate::layers::{self, Layers};
use crate::rep::{Ctx, Fnv, Latency, Rep};
use crate::stats::mean;
use crate::trace::{SpanId, Trace, NO_PARENT};
use cdns::dnssim::{resolve_tcp, resolve_with, ClientPolicy};
use cdns::dnswire::{DnsName, RecordType};
use cdns::measure::{build_world, World};
use loadgen::chaos::{plan_carrier, ChaosAction, ChaosProfile};
use loadgen::{build_script, MixConfig, Script};
use serve::{
    classify, Admission, AdmitConfig, CarrierEndpoint, Endpoints, ServeCore, Served, Transport,
    Verdict, WireClass, WorldConfig,
};
use std::time::Instant;

/// One query as the serving plane saw it: which carrier's socket, which
/// scripted query, which transport. A sequence of these in send order is
/// all a replay needs.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub shard: usize,
    pub idx: usize,
    pub transport: Transport,
}

impl Op {
    pub fn udp(shard: usize, idx: usize) -> Op {
        Op {
            shard,
            idx,
            transport: Transport::Udp,
        }
    }
}

pub fn mix(ctx: &Ctx) -> MixConfig {
    MixConfig {
        queries: ctx.workload.queries(ctx.smoke),
        miss_per_mille: ctx.workload.miss_per_mille(),
    }
}

/// The script builder keys only on the world config and per-shard device
/// populations; the addresses are never dialled in process.
fn fake_endpoints(config: &WorldConfig, core: &ServeCore) -> Endpoints {
    Endpoints {
        config: config.clone(),
        carriers: (0..core.carrier_count())
            .map(|i| CarrierEndpoint {
                index: i,
                name: core.carrier_name(i).to_string(),
                udp: "127.0.0.1:1".parse().expect("static addr"),
                tcp: "127.0.0.1:2".parse().expect("static addr"),
                devices: core.carrier_devices(i),
            })
            .collect(),
    }
}

/// What the shadow pass measured beside its spans.
pub struct Shadow {
    /// Engine events the replayed resolves cost.
    pub resolve_events: u64,
    /// Mean of a 2 000-query sample pushed through `resolve_tcp` afterwards.
    pub resolve_tcp_us: f64,
}

/// Replays `dnssim.resolve` for `ops` on a fresh world with the device
/// cursor `ServeCore` keeps, timing the very call it makes. `parents[i]`
/// is the `serve.handle` span op `i` resolves under.
pub fn shadow_resolve(
    config: &WorldConfig,
    script: &Script,
    ops: &[Op],
    trace: &mut Trace,
    parents: &[SpanId],
) -> Shadow {
    let mut world = build_world(config.clone());
    let mut cursors = vec![0usize; world.shards.len()];
    for (i, op) in ops.iter().enumerate() {
        let qname = &script.per_carrier[op.shard][op.idx].qname;
        let start = trace.now_ns();
        resolve_as_next_device(&mut world, &mut cursors, op.shard, qname, op.transport);
        let end = trace.now_ns();
        trace.push(i as u32, "dnssim.resolve", parents[i], start, end);
    }
    let resolve_events = world.total_events();
    // A sample through the TCP path, continuing on the same world.
    let sample = ops.len().min(2_000);
    let mut tcp_ns = Vec::with_capacity(sample);
    for op in &ops[..sample] {
        let qname = &script.per_carrier[op.shard][op.idx].qname;
        let start = Instant::now();
        resolve_as_next_device(&mut world, &mut cursors, op.shard, qname, Transport::Tcp);
        tcp_ns.push(start.elapsed().as_nanos() as u64);
    }
    Shadow {
        resolve_events,
        resolve_tcp_us: mean(tcp_ns) / 1e3,
    }
}

fn resolve_as_next_device(
    world: &mut World,
    cursors: &mut [usize],
    shard: usize,
    qname: &DnsName,
    transport: Transport,
) {
    let shard_ref = &mut world.shards[shard];
    let device = &shard_ref.devices[cursors[shard] % shard_ref.devices.len()];
    cursors[shard] += 1;
    let (node, resolver) = (device.node, device.configured_dns);
    let lookup = match transport {
        Transport::Udp => resolve_with(
            &mut shard_ref.net,
            node,
            resolver,
            qname,
            RecordType::A,
            &ClientPolicy::classic(),
        ),
        Transport::Tcp => resolve_tcp(&mut shard_ref.net, node, resolver, qname, RecordType::A),
    };
    std::hint::black_box(lookup);
}

/// The serve layer's rows every serve workload shares, from a trace that
/// holds `serve.handle` spans with `dnssim.resolve` children.
pub fn serve_rows(layers: &mut Layers, trace: &Trace, shadow: &Shadow, ops: u64) {
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    let handle = per_op(trace.total_ns("serve.handle"));
    let resolve = per_op(trace.total_ns("dnssim.resolve"));
    layers.insert("serve.handle_us", handle / 1e3);
    layers.insert("serve.self_us", per_op(trace.self_ns("serve.handle")) / 1e3);
    layers.insert("dnssim.resolve_us", resolve / 1e3);
    layers.insert("dnssim.resolve_tcp_us", shadow.resolve_tcp_us);
    // Outside-in, the engine cannot be told from the service handlers it
    // dispatches: resolve time over its events is an upper bound.
    layers.insert(
        "netsim.ns_per_event",
        trace.total_ns("dnssim.resolve") as f64 / shadow.resolve_events.max(1) as f64,
    );
}

/// Micro-loops on the script's own bytes and on replies captured from the
/// workload; `core` has finished its repetition and serves as scratch.
pub fn script_rows(
    ctx: &Ctx,
    layers: &mut Layers,
    script: &Script,
    replies: &[Vec<u8>],
    core: &mut ServeCore,
) {
    let budget = ctx.micro_budget();
    let queries: Vec<&[u8]> = script
        .per_carrier
        .iter()
        .flat_map(|qs| qs.iter().take(512).map(|q| q.wire.as_slice()))
        .collect();
    layers::dnswire(layers, budget, &queries, replies);
    let names: Vec<DnsName> = script
        .per_carrier
        .iter()
        .flat_map(|qs| qs.iter().take(512).map(|q| q.qname.clone()))
        .collect();
    layers::cache(layers, budget, &names, replies);
    let carriers: Vec<&str> = (0..core.carrier_count())
        .map(|i| core.carrier_name(i))
        .collect();
    layers::obs(layers, budget, &carriers, &core.registry);
    layers::world_counters(layers, core.world(), script.total());
    let depth = layers
        .get("netsim.queue_depth_peak")
        .copied()
        .unwrap_or(1.0);
    layers::queue(layers, budget, depth as u64);

    // The off-fast-path cost: the stress profile's garbage and mutant
    // datagrams that classify as rejects, which never touch sim state.
    let rejects: Vec<(usize, Vec<u8>)> = script
        .per_carrier
        .iter()
        .enumerate()
        .flat_map(|(shard, qs)| {
            plan_carrier(
                ChaosProfile::Stress,
                ctx.seed,
                shard,
                &qs[..qs.len().min(2_000)],
            )
            .into_iter()
            .flatten()
            .filter_map(move |action| match action {
                ChaosAction::UdpGarbage(b) | ChaosAction::UdpMutant(b) => Some((shard, b)),
                _ => None,
            })
        })
        .filter(|(_, bytes)| !matches!(classify(bytes), WireClass::WellFormed))
        .collect();
    if !rejects.is_empty() {
        let mut i = 0usize;
        layers.insert(
            "serve.reject_ns",
            layers::ns_per_call(budget, || {
                i = (i + 1) % rejects.len();
                let (shard, bytes) = &rejects[i];
                std::hint::black_box(core.handle(*shard, Transport::Udp, bytes));
            }),
        );
    }
}

/// One repetition of the in-process loop. With a trace, each op records
/// `serve.classify`, `serve.admit` and `serve.handle`, and the shadow pass
/// adds `dnssim.resolve` under each handle.
pub fn run(ctx: &Ctx, trace: Option<&mut Trace>, layers: &mut Layers) -> Rep {
    let started = Instant::now();
    let config = WorldConfig::quick(ctx.seed);
    let mut core = ServeCore::new(config.clone());
    let world_s = started.elapsed().as_secs_f64();
    let script = build_script(&fake_endpoints(&config, &core), &mix(ctx));
    let script_s = started.elapsed().as_secs_f64() - world_s;
    // Limits it can never hit: every query pays classify and the token
    // arithmetic exactly like the serving path, without ever shedding.
    let mut admission = Admission::new(AdmitConfig::unthrottled(), core.carrier_count(), 0);
    let total = script.total() as usize;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(total);
    let tracing = trace.is_some();
    // [classify start, admit start, handle start, handle end] per op.
    let mut stamps: Vec<[u64; 4]> = Vec::with_capacity(if tracing { total } else { 0 });
    let keep_every = (total / 512).max(1);
    let mut sample: Vec<Vec<u8>> = Vec::with_capacity(if tracing { 600 } else { 0 });
    let mut fnv = Fnv::default();
    let (mut answered, mut failed, mut now_us) = (0u64, 0u64, 0u64);
    let setup_s = started.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    for (shard, queries) in script.per_carrier.iter().enumerate() {
        for q in queries {
            now_us += 1;
            let t0 = now();
            let well_formed = matches!(classify(&q.wire), WireClass::WellFormed);
            let t1 = if tracing { now() } else { t0 };
            let admitted = well_formed && admission.admit(shard, now_us, 1) == Verdict::Admit;
            let t2 = if tracing { now() } else { t0 };
            let served = admitted.then(|| core.handle(shard, Transport::Udp, &q.wire));
            let t3 = now();
            latencies_ns.push(t3 - t0);
            if tracing {
                stamps.push([t0, t1, t2, t3]);
            }
            match served {
                Some(Served::Reply(bytes)) => {
                    answered += 1;
                    fnv.update(&bytes);
                    if tracing && latencies_ns.len().is_multiple_of(keep_every) {
                        sample.push(bytes);
                    }
                }
                // A scripted query refused or dropped is a failed op.
                _ => failed += 1,
            }
        }
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let rep = Rep {
        setup_s,
        wall_s,
        ops: answered,
        events: core.total_events(),
        attempted: total as u64,
        failed,
        digest: fnv.hex(),
        latency: Latency::from_ops(&latencies_ns),
        ..Rep::default()
    };
    let Some(trace) = trace else { return rep };

    let base = trace.now_ns().saturating_sub(now());
    let mut handles = Vec::with_capacity(total);
    for (op, [t0, t1, t2, t3]) in stamps.into_iter().enumerate() {
        let op = op as u32;
        trace.push(op, "serve.classify", NO_PARENT, base + t0, base + t1);
        trace.push(op, "serve.admit", NO_PARENT, base + t1, base + t2);
        handles.push(trace.push(op, "serve.handle", NO_PARENT, base + t2, base + t3));
    }
    let ops: Vec<Op> = script
        .per_carrier
        .iter()
        .enumerate()
        .flat_map(|(shard, qs)| (0..qs.len()).map(move |idx| Op::udp(shard, idx)))
        .collect();
    let shadow = shadow_resolve(&config, &script, &ops, trace, &handles);

    let per_op = |ns: u64| ns as f64 / total.max(1) as f64;
    layers.insert("measure.build_world_ms", world_s * 1e3);
    layers.insert(
        "loadgen.script_ns_per_query",
        script_s * 1e9 / total.max(1) as f64,
    );
    layers.insert(
        "serve.classify_ns",
        per_op(trace.total_ns("serve.classify")),
    );
    layers.insert("serve.admit_ns", per_op(trace.total_ns("serve.admit")));
    layers.insert(
        "serve.dropped",
        core.registry.counter_total("serve.dropped") as f64,
    );
    serve_rows(layers, trace, &shadow, total as u64);
    script_rows(ctx, layers, &script, &sample, &mut core);
    rep
}
