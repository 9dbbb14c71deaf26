#!/usr/bin/env python3
"""CI vitals check over the repro smoke run's observability output.

Usage:
    vitals_check.py <metrics.json> <host-profile.txt> <baseline.json> <fault-profile>
    vitals_check.py --soak <serve-metrics.json> <soak-profile.json> <chaos-profile>

Smoke-run mode has two gates, one per observability plane:

1. Sim plane (`metrics.json`): the baseline's required counters must be
   nonzero — a campaign that ran but counted nothing means the harvest
   wiring broke. Under the `cellular` fault profile the chaos layer must
   also have injected faults. The counter lists live in the baseline JSON
   (`required_counters` / `required_counters_cellular`) so adding an
   instrument is a data change, not a script edit.
2. Host plane (captured stderr profile): the campaign stage's events/sec
   throughput must not regress more than the configured tolerance below
   the low edge of the checked-in baseline band. The band's low edge is
   set conservatively for shared CI runners; the tolerance absorbs
   runner-to-runner noise on top.

Stdlib only — the repo vendors all Rust deps and installs nothing in CI.
"""

import json
import re
import sys

DEFAULT_REQUIRED = ["campaign.experiments", "campaign.lookups", "dns.cache.hits"]
DEFAULT_REQUIRED_CELLULAR = ["fault.injected"]

# Every sim-plane metric name the workspace may emit that is not already a
# gated counter in vitals-baseline.json. This is the shared allowlist for
# detlint rule D12 (which cross-checks it against the actual obs mutator
# call sites, both directions) and for the unknown-counter check below:
# adding an instrument means adding its name here or to the baseline, so
# typo'd or orphaned counters fail CI instead of silently exporting.
KNOWN_METRICS = [
    "campaign.completed_backlog",
    "campaign.identity_probes",
    "campaign.replica_probes",
    "campaign.resolver_probes",
    "dns.cache.ambient_hits",
    "dns.cache.evictions",
    "dns.cache.misses",
    "dns.forwarder.cache_answers",
    "dns.forwarder.relayed",
    "dns.forwarder.repicks",
    "dns.forwarder.returned",
    "dns.lookup.outcomes",
    "dns.lookup_us",
    "dns.resolver.cache_answers",
    "dns.resolver.client_queries",
    "dns.resolver.fault_dropped",
    "dns.resolver.fault_servfails",
    "dns.resolver.fault_truncations",
    "dns.resolver.servfails",
    "dns.resolver.upstream_queries",
    "loadgen.answered",
    "loadgen.chaos_injected",
    "loadgen.latency_us",
    "loadgen.mismatches",
    "loadgen.sent",
    "loadgen.shed_retries",
    "loadgen.tc_retries",
    "loadgen.wire_timeouts",
    "net.delivered",
    "net.drops_by_cause",
    "net.events",
    "net.events_by_kind",
    "net.forwards",
    "net.queue_depth",
    "net.timeouts",
    "serve.conn_evicted",
    "serve.drain_completed",
    "serve.dropped",
    "serve.formerr",
    "serve.notimp",
    "serve.outcomes",
    "serve.queries",
    "serve.shed",
    "serve.sim_latency_us",
    "serve.truncated",
]

# Server-side counters a chaos soak must have driven nonzero, per chaos
# profile: the whole point of injecting hostile wire traffic is to
# exercise the typed reject, shed, and eviction paths, so a soak that
# counted none of them means the chaos lane (or the server's defenses)
# silently disappeared.
SOAK_REQUIRED = {
    "mild": ["serve.queries", "serve.formerr"],
    "stress": ["serve.queries", "serve.formerr", "serve.shed", "serve.conn_evicted"],
}


def counter_total(metrics, name):
    return sum(c["value"] for c in metrics.get("counters", []) if c["name"] == name)


def parse_events_per_sec(profile_text):
    """Reads the `N events/s` rate from the host-plane profile, undoing the
    compact `912` / `4.1k` / `7.6M` rendering."""
    m = re.search(r"([0-9.]+)([kM]?) events/s", profile_text)
    if not m:
        return None
    return float(m.group(1)) * {"": 1.0, "k": 1e3, "M": 1e6}[m.group(2)]


def check_smoke(argv):
    metrics_path, profile_path, baseline_path, fault_profile = argv
    with open(metrics_path) as f:
        metrics = json.load(f)
    with open(profile_path) as f:
        profile_text = f.read()
    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = []

    known = set(KNOWN_METRICS)
    known.update(baseline.get("required_counters", DEFAULT_REQUIRED))
    known.update(baseline.get("required_counters_cellular", DEFAULT_REQUIRED_CELLULAR))
    exported = set()
    for plane in ("counters", "gauges", "histograms"):
        exported.update(m["name"] for m in metrics.get(plane, []))
    for name in sorted(exported - known):
        failures.append(f"exported metric {name} is not in the baseline or KNOWN_METRICS")

    required = list(baseline.get("required_counters", DEFAULT_REQUIRED))
    if fault_profile == "cellular":
        required += baseline.get("required_counters_cellular", DEFAULT_REQUIRED_CELLULAR)
    for name in required:
        total = counter_total(metrics, name)
        print(f"vitals: {name} = {total}")
        if total == 0:
            failures.append(f"counter {name} is zero")

    rate = parse_events_per_sec(profile_text)
    low = baseline["events_per_sec"]["low"]
    floor = low * (1.0 - baseline["regression_tolerance"])
    if rate is None:
        failures.append("no `events/s` rate found in the host-plane profile")
    else:
        print(f"vitals: campaign throughput = {rate:.0f} events/s "
              f"(baseline low {low:.0f}, failure floor {floor:.0f})")
        if rate < floor:
            failures.append(
                f"events/sec regressed: {rate:.0f} < {floor:.0f} "
                f"(>{baseline['regression_tolerance']:.0%} below baseline low)")
    return failures


def check_soak(argv):
    """Gates a `repro soak --chaos <profile>` run: the server-side metrics
    artifact must count hostile traffic on every defense path the profile
    exercises, the loadgen profile must show zero lost or diverged
    answers, and no unknown metric names may leak out."""
    metrics_path, profile_path, chaos_profile = argv
    if chaos_profile not in SOAK_REQUIRED:
        return [f"unknown chaos profile '{chaos_profile}' "
                f"(expected one of {sorted(SOAK_REQUIRED)})"]
    with open(metrics_path) as f:
        metrics = json.load(f)
    with open(profile_path) as f:
        profile = json.load(f)

    failures = []

    known = set(KNOWN_METRICS)
    exported = set()
    for plane in ("counters", "gauges", "histograms"):
        exported.update(m["name"] for m in metrics.get(plane, []))
    for name in sorted(exported - known):
        failures.append(f"exported metric {name} is not in KNOWN_METRICS")

    for name in SOAK_REQUIRED[chaos_profile]:
        total = counter_total(metrics, name)
        print(f"vitals: {name} = {total}")
        if total == 0:
            failures.append(f"chaos soak counter {name} is zero")

    # Loadgen side: chaos actually ran, and the hostile-wire invariant
    # held — nothing well-formed was lost and nothing diverged from the
    # ground-truth replay.
    print(f"vitals: chaos_injected = {profile['chaos_injected']}, "
          f"answered = {profile['answered']}, "
          f"mismatches = {profile['mismatches']}, "
          f"chaos_unanswered = {profile['chaos_unanswered']}")
    if profile["chaos_injected"] == 0:
        failures.append("chaos profile requested but chaos_injected is zero")
    if profile["answered"] == 0:
        failures.append("soak answered nothing")
    if profile["mismatches"] != 0:
        failures.append(
            f"{profile['mismatches']} wire answers diverged from ground truth")
    if profile["chaos_unanswered"] != 0:
        failures.append(
            f"{profile['chaos_unanswered']} reply-owed chaos datagrams went unanswered")
    return failures


def main():
    argv = sys.argv[1:]
    if len(argv) == 4 and argv[0] == "--soak":
        failures = check_soak(argv[1:])
    elif len(argv) == 4:
        failures = check_smoke(argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2

    if failures:
        for f in failures:
            print(f"vitals-check FAILED: {f}", file=sys.stderr)
        return 1
    print("vitals-check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
