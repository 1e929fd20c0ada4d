#!/usr/bin/env python3
"""Validate and diff bench --metrics-out snapshots.

A snapshot is one JSON object mapping testbed labels to metric
registries:

    {"testbed0": {"schema_version": 3, "server.stats_dumps": 3, ...}}

Every registry value is one of four shapes (MetricRegistry::toJson):

    counter    number
    gauge      {"value","min","max","updates"}
    histogram  {"total","p50","p90","p99","p999","buckets"}
    latency    {"count","mean_us","p50_us","p90_us","p99_us",
                "p999_us","max_us"}

Validation checks the wrapper, the schema_version of every registry,
the shape of every metric, histogram bucket ordering and that the
bucket counts sum to the total, percentile monotonicity, and that
every backend poll visit recorded its batch (<svc>.poll.batch total
== <svc>.poll.total).
Metric families with a declared kind (the fleet controller's
fleet.* names, the end-to-end *.integrity.* family, the simulation
core's sim.* counters, and the flight-recorder and request-tracer
obs names) are additionally pinned: a fleet counter that turns into
a histogram is a schema break even though both are valid shapes.

    metrics_check.py A.json [B.json ...]      validate each file
    metrics_check.py --diff A.json B.json     validate + require
                                              structural equality
                                              (the determinism check:
                                              same seed, same bytes)

Exit code 0 on success, 1 on any failure; failures are printed one
per line with a JSON-path-ish location.
"""

import json
import re
import sys

SCHEMA_VERSION = 3

GAUGE_KEYS = {"value", "min", "max", "updates"}
HISTOGRAM_KEYS = {"total", "p50", "p90", "p99", "p999", "buckets"}
LATENCY_KEYS = {
    "count", "mean_us", "p50_us", "p90_us", "p99_us", "p999_us",
    "max_us",
}


# Declared-kind families: "<registry name>.<suffix>" -> kind. The
# fleet controller is instantiable under any name, so match on the
# dotted suffix. A name matching a suffix with the wrong shape is a
# schema break even when the shape itself is valid.
FLEET_KINDS = {
    "placements": "counter",
    "migration_starts": "counter",
    "migrations": "counter",
    "migration_aborts": "counter",
    "failovers": "counter",
    "fences": "counter",
    "board_failures": "counter",
    "hot_swaps": "counter",
    "lost_guests": "counter",
    "migration.blackout": "latency",
}

# End-to-end data-integrity family: every component that detects,
# heals, or escalates corruption exports under "<name>.integrity.*".
# The healed-retry latency is the one non-counter (SLO-visible).
INTEGRITY_KINDS = {
    "integrity.ecrc_checked": "counter",
    "integrity.ecrc_detected": "counter",
    "integrity.ecrc_healed": "counter",
    "integrity.ecrc_escalations": "counter",
    "integrity.retry": "latency",
    "integrity.scrub.runs": "counter",
    "integrity.scrub.checked": "counter",
    "integrity.scrub.repairs": "counter",
    "integrity.queue_resets": "counter",
    "integrity.meta_injected": "counter",
    "integrity.meta_faults": "counter",
    "integrity.dif_detects": "counter",
    "integrity.dif_retries": "counter",
    "integrity.dif_failures": "counter",
    "integrity.frames_checked": "counter",
    "integrity.frame_drops": "counter",
    "integrity.fabric_corruptions": "counter",
    "integrity.escalations": "counter",
    "integrity.server_unhealthy": "counter",
    "integrity.drains": "counter",
}


# Parallel simulation core (DESIGN.md §18): the coordinator's
# round/mailbox counters and the event-queue compaction counter.
# These are registry-level names (one simulation, no component
# prefix); a shape change is a schema break.
SIM_KINDS = {
    "sim.psim.rounds": "counter",
    "sim.psim.messages": "counter",
    "sim.eventq.compactions": "counter",
}


# Observability family (DESIGN.md §9, §14): each flight recorder's
# "<path>.flight.*" counters and each request tracer's flow counters
# and per-stage latencies ("<path>.stage.<stage|total>"). Consumers
# sum .flight.events and read .stage.total as a latency, so a
# reshaped metric would silently break their attribution.
OBS_KINDS = {
    "flight.events": "counter",
    "flight.overwritten": "counter",
    "flows.started": "counter",
    "flows.completed": "counter",
    "flows.unmatched": "counter",
    "flows.evicted": "counter",
    "flows.aborted": "counter",
    "obs.tracer.evicted_flows": "counter",
}
for _stage in ("shadow_sync", "sched_delay", "poll_pickup", "service",
               "complete_dma", "guest_irq", "total"):
    OBS_KINDS["stage." + _stage] = "latency"


# Multi-queue family (DESIGN.md §17). Queue indices are part of the
# name ("...sched.served.<hv>.mq.blkq3"), so these are pinned by
# pattern rather than literal suffix. All are counters; a shape
# change is a schema break.
MQ_PATTERNS = [
    (re.compile(r"\.mq\.queue_regs$"), "counter"),
    (re.compile(r"\.mq\.passthrough_binds$"), "counter"),
    (re.compile(r"\.mq\.passthrough_demotions$"), "counter"),
    # Per-queue scheduling units' served counters (and the console
    # unit): "<sched>.served.<hv>.mq.{netp<i>,blkq<i>,con}".
    (re.compile(r"\.served\..*\.mq\.(netp\d+|blkq\d+|con)$"),
     "counter"),
]


# Backend poll accounting (DESIGN.md §12): every visit of every
# scheduling unit counts <svc>.poll.total and records one
# <svc>.poll.batch sample.
POLL_TOTAL = ".poll.total"


def metric_kind(v):
    """Classify a metric value; None when the shape is unknown."""
    if is_num(v):
        return "counter"
    if not isinstance(v, dict):
        return None
    keys = set(v.keys())
    if keys == GAUGE_KEYS:
        return "gauge"
    if keys == HISTOGRAM_KEYS:
        return "histogram"
    if keys == LATENCY_KEYS:
        return "latency"
    return None


def declared_kind(name):
    for kinds in (FLEET_KINDS, INTEGRITY_KINDS, SIM_KINDS, OBS_KINDS):
        for suffix, kind in kinds.items():
            if name == suffix or name.endswith("." + suffix):
                return kind
    for pattern, kind in MQ_PATTERNS:
        if pattern.search(name):
            return kind
    return None


def is_num(v):
    # JSON null stands for a non-finite double (appendJsonNumber).
    return v is None or isinstance(v, (int, float))


def check_percentiles(errs, path, obj, keys):
    """Percentiles must be numeric and non-decreasing."""
    prev_key, prev = None, None
    for k in keys:
        v = obj.get(k)
        if not is_num(v):
            errs.append(f"{path}.{k}: not a number: {v!r}")
            return
        if v is None:
            continue
        if prev is not None and v < prev:
            errs.append(
                f"{path}: {k}={v} below {prev_key}={prev} "
                f"(percentiles must be monotonic)")
        prev_key, prev = k, v


def check_histogram(errs, path, h):
    missing = HISTOGRAM_KEYS - h.keys()
    extra = h.keys() - HISTOGRAM_KEYS
    if missing or extra:
        errs.append(f"{path}: bad histogram keys "
                    f"(missing {sorted(missing)}, "
                    f"extra {sorted(extra)})")
        return
    if not is_num(h["total"]):
        errs.append(f"{path}.total: not a number: {h['total']!r}")
        return
    check_percentiles(errs, path, h, ("p50", "p90", "p99", "p999"))
    buckets = h["buckets"]
    if not isinstance(buckets, list):
        errs.append(f"{path}.buckets: not a list")
        return
    counted = 0
    prev_high = None
    for i, b in enumerate(buckets):
        bp = f"{path}.buckets[{i}]"
        if (not isinstance(b, list) or len(b) != 3
                or not all(is_num(x) for x in b)):
            errs.append(f"{bp}: want [low, high, count]")
            return
        low, high, count = b
        if low >= high:
            errs.append(f"{bp}: low {low} >= high {high}")
        if count <= 0:
            errs.append(f"{bp}: empty buckets are not emitted "
                        f"(count {count})")
        if prev_high is not None and low < prev_high:
            errs.append(f"{bp}: overlaps previous bucket "
                        f"(low {low} < prev high {prev_high})")
        prev_high = high
        counted += count
    if counted != h["total"]:
        errs.append(f"{path}: bucket sum {counted} != total "
                    f"{h['total']}")


def check_latency(errs, path, l):
    missing = LATENCY_KEYS - l.keys()
    extra = l.keys() - LATENCY_KEYS
    if missing or extra:
        errs.append(f"{path}: bad latency keys "
                    f"(missing {sorted(missing)}, "
                    f"extra {sorted(extra)})")
        return
    for k in ("count", "mean_us", "max_us"):
        if not is_num(l[k]):
            errs.append(f"{path}.{k}: not a number: {l[k]!r}")
            return
    check_percentiles(errs, path, l,
                      ("p50_us", "p90_us", "p99_us", "p999_us"))
    if (l["count"] and l["p999_us"] is not None
            and l["max_us"] is not None
            and l["p999_us"] > l["max_us"]):
        errs.append(f"{path}: p999_us {l['p999_us']} > max_us "
                    f"{l['max_us']}")


def check_metric(errs, path, v):
    if is_num(v):
        return  # counter
    if not isinstance(v, dict):
        errs.append(f"{path}: unrecognized metric shape "
                    f"({type(v).__name__})")
        return
    keys = set(v.keys())
    if keys == GAUGE_KEYS:
        for k in GAUGE_KEYS:
            if not is_num(v[k]):
                errs.append(f"{path}.{k}: not a number: {v[k]!r}")
    elif keys == HISTOGRAM_KEYS:
        check_histogram(errs, path, v)
    elif keys == LATENCY_KEYS:
        check_latency(errs, path, v)
    else:
        errs.append(f"{path}: keys match no metric kind: "
                    f"{sorted(keys)}")


def check_registry(errs, path, reg):
    if not isinstance(reg, dict):
        errs.append(f"{path}: registry is not an object")
        return
    ver = reg.get("schema_version")
    if ver != SCHEMA_VERSION:
        errs.append(f"{path}.schema_version: want {SCHEMA_VERSION}, "
                    f"got {ver!r}")
    for name, v in reg.items():
        if name == "schema_version":
            continue
        check_metric(errs, f"{path}.{name}", v)
        want = declared_kind(name)
        if want is not None:
            got = metric_kind(v)
            if got is not None and got != want:
                errs.append(f"{path}.{name}: declared {want}, "
                            f"shaped like {got}")
        if name.endswith(POLL_TOTAL) and is_num(v):
            batch = reg.get(name[:-len(POLL_TOTAL)] + ".poll.batch")
            if (metric_kind(batch) == "histogram"
                    and batch["total"] != v):
                errs.append(f"{path}.{name}: {v} visits but "
                            f"{batch['total']} poll.batch samples")


def check_file(fname):
    errs = []
    try:
        with open(fname) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{fname}: {e}"], None
    if not isinstance(doc, dict) or not doc:
        return [f"{fname}: want a non-empty label->registry "
                f"object"], None
    for label, reg in doc.items():
        check_registry(errs, f"{fname}:{label}", reg)
    return errs, doc


def diff(errs, path, a, b):
    """Structural equality with a path to the first divergences."""
    if type(a) is not type(b):
        errs.append(f"{path}: type {type(a).__name__} vs "
                    f"{type(b).__name__}")
        return
    if isinstance(a, dict):
        for k in sorted(a.keys() | b.keys()):
            if k not in a:
                errs.append(f"{path}.{k}: only in second file")
            elif k not in b:
                errs.append(f"{path}.{k}: only in first file")
            else:
                diff(errs, f"{path}.{k}", a[k], b[k])
    elif isinstance(a, list):
        if len(a) != len(b):
            errs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            diff(errs, f"{path}[{i}]", x, y)
    elif a != b:
        errs.append(f"{path}: {a!r} vs {b!r}")


def main(argv):
    args = argv[1:]
    want_diff = False
    if args and args[0] == "--diff":
        want_diff = True
        args = args[1:]
        if len(args) != 2:
            print("usage: metrics_check.py --diff A.json B.json",
                  file=sys.stderr)
            return 2
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    errs = []
    docs = []
    for fname in args:
        ferrs, doc = check_file(fname)
        errs += ferrs
        docs.append(doc)
        if not ferrs:
            n = sum(len(r) - 1 for r in doc.values()
                    if isinstance(r, dict))
            print(f"{fname}: OK ({len(doc)} testbed(s), "
                  f"{n} metrics)")

    if want_diff and all(d is not None for d in docs):
        derrs = []
        diff(derrs, "", docs[0], docs[1])
        if derrs:
            errs.append(f"{args[0]} vs {args[1]}: "
                        f"{len(derrs)} divergence(s)")
            errs += derrs[:20]
            if len(derrs) > 20:
                errs.append(f"... and {len(derrs) - 20} more")
        else:
            print(f"{args[0]} == {args[1]} (structurally identical)")

    for e in errs:
        print(f"FAIL: {e}", file=sys.stderr)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
