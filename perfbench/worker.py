"""Run one workload in this (fresh) process and print its results.

``run.py`` starts one worker per workload, one at a time, because
``ru_maxrss`` is a per-process high-water mark.  The worker repeats the
workload's scenario (same seed, same inputs) until ``--seconds`` of host
time are used, checks every repeat's output, and prints one JSON object
as its last line of standard output.

Untraced (``--trace 0``): at least three repeats; end-to-end metrics are
medians over the repeats.  Traced (``--trace 1``): alternating untraced
and traced repeats; per-layer metrics are medians over the traced ones,
and each traced repeat must reproduce its untraced twin exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent.parent != SRC:
    sys.exit(f"worker: imported repro from {repro.__file__}, not {SRC}")

from scenarios import Result, generate, run_once  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_REPEATS = 3
MIN_TRACED_PAIRS = 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def repeat(run, seconds: float, minimum: int) -> list:
    """Call ``run()`` until ``seconds`` are used (at least ``minimum``
    times), starting another call only if it should fit."""
    outputs = []
    started = time.perf_counter()
    last = 0.0
    while (len(outputs) < minimum
           or time.perf_counter() - started + last <= seconds):
        gc.collect()
        begun = time.perf_counter()
        outputs.append(run())
        last = time.perf_counter() - begun
    return outputs


def check(results, traced=None) -> list:
    """Every problem found in a set of repeats of one seed.

    Each repeat must create one session per flow and deliver every
    byte sent; all repeats must agree on the event digest, per-flow
    bytes, first-packet latencies and fluid statistics.  ``traced``
    pairs each traced repeat with the untraced one it must reproduce.
    """
    problems = []
    for index, result in enumerate(results):
        if result.sessions != result.flows:
            problems.append(
                f"repeat {index}: {result.sessions} sessions"
                f" for {result.flows} flows"
            )
        if result.failed_flows:
            problems.append(
                f"repeat {index}: {result.failed_flows} flows short"
            )
    pairs = [(results[0], other, "repeat") for other in results[1:]]
    pairs += [(plain, other, "traced") for plain, other in traced or ()]
    for base, other, kind in pairs:
        for field in ("digest", "sent_bytes", "delivered_bytes",
                      "first_packet_s", "fluid_stats"):
            if getattr(base, field) != getattr(other, field):
                problems.append(f"{kind} run differs in {field}")
    return problems


def first_packet_ms(result: Result) -> list:
    return [s * 1e3 for s in result.first_packet_s if s is not None]


def end_to_end(results) -> dict:
    latencies_ms = first_packet_ms(results[0])
    attempted = sum(r.flows for r in results)
    failed = sum(r.failed_flows for r in results)
    return {
        "wall_s": statistics.median(r.wall_s for r in results),
        "setup_s": statistics.median(r.setup_s for r in results),
        "delivered_pps": statistics.median(
            r.delivered_frames / r.wall_s for r in results
        ),
        "sessions_per_s": statistics.median(
            r.sessions / r.wall_s for r in results
        ),
        # Simulated time: identical on every repeat of one seed.
        "first_packet_mean_ms": statistics.fmean(latencies_ms)
        if latencies_ms else None,
        "delivered_flow_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(tracer: Tracer, traced: Result, untraced: Result) -> dict:
    """The per-layer metrics of one traced repeat."""
    count = tracer.counts.get
    own = tracer.self_s.get
    layer = tracer.layer_self_s
    fluid = traced.fluid_stats or {}
    refusals = fluid.get("refusals", {})
    lookups = count("flowtable.lookups", 0)
    routes = count("routing.lookups", 0)
    packet_ins = tracer.samples.get("controller.packet_in")
    p99 = percentile(packet_ins, 0.99) if packet_ins else 0.0
    return {
        "kernel.events": traced.events,
        "kernel.events_per_s": traced.events / untraced.wall_s,
        "kernel.schedules": count("kernel.schedules", 0),
        "kernel.self_s": layer("kernel"),
        "kernel.pending_peak": tracer.pending_peak,
        "kernel.compactions": traced.compactions,
        "links.transmits": count("links.transmits", 0),
        "links.self_s": layer("links"),
        "links.drops": count("links.drops", 0),
        "legacy.frames": count("legacy.frames", 0),
        "legacy.self_s": layer("legacy"),
        "switch.frames": count("switch.frames", 0),
        "switch.self_s": layer("switch"),
        "switch.of_msgs": count("switch.of_msgs", 0),
        "switch.of_self_s": own("switch.of", 0.0),
        "flowtable.lookups": lookups,
        "flowtable.lookup_self_s": own("flowtable.lookup", 0.0),
        "flowtable.hit_ratio": (
            count("flowtable.hits", 0) / lookups if lookups else 0.0
        ),
        "flowtable.adds": count("flowtable.adds", 0),
        "flowtable.add_self_s": own("flowtable.add", 0.0),
        "channel.to_controller": count("channel.to_controller", 0),
        "channel.to_switch": count("channel.to_switch", 0),
        "pipeline.installs": count("pipeline.installs", 0),
        "pipeline.barrier_acks": count("pipeline.barrier_acks", 0),
        "pipeline.self_s": layer("pipeline"),
        "hosts.rx_frames": count("hosts.rx_frames", 0),
        "hosts.self_s": layer("hosts"),
        "workloads.emits": count("workloads.emits", 0),
        "workloads.self_s": layer("workloads"),
        "elements.frames": count("elements.frames", 0),
        "elements.inspects": count("elements.inspects", 0),
        "elements.self_s": layer("elements"),
        "elements.dropped": traced.element_drops,
        "controller.packet_ins": count("controller.packet_ins", 0),
        "controller.packet_in_self_s": own("controller.packet_in", 0.0),
        "controller.packet_in_p99_us": p99 * 1e6,
        "bus.publishes": count("bus.publishes", 0),
        "steering.self_s": layer("steering"),
        "policy.lookups": count("policy.lookups", 0),
        "loadbalance.assigns": count("loadbalance.assigns", 0),
        "routing.cache_hit_ratio": (
            1.0 - count("routing.misses", 0) / routes if routes else 0.0
        ),
        "nib.learns": count("nib.learns", 0),
        "nib.digests": count("nib.digests", 0),
        "nib.digest_self_s": own("nib.digest", 0.0),
        "sharding.hellos": count("sharding.hellos", 0),
        "sharding.hello_self_s": own("sharding.hello", 0.0),
        "sharding.remote_rule_ops": count("sharding.remote_rule_ops", 0),
        "sharding.self_s": layer("sharding"),
        "eventlog.emits": count("eventlog.emits", 0),
        "eventlog.self_s": layer("eventlog"),
        "fluid.advances": count("fluid.advances", 0),
        "fluid.self_s": layer("fluid"),
        "fluid.suspended_share": (
            fluid.get("time_saved_s", 0.0) / traced.sim_span_s
        ),
        "fluid.packets_synthesized": fluid.get("packets_synthesized", 0),
        "fluid.refusals": sum(refusals.values()),
        "fluid.refusals.queue-backlog": refusals.get("queue-backlog", 0),
        "other.self_s": layer("other"),
        "trace.overhead": traced.wall_s / untraced.wall_s,
    }


def summary(result: Result) -> dict:
    """The facts of one repeat worth printing (not metrics)."""
    latencies_ms = first_packet_ms(result) or [0.0]
    return {
        "first_packet_p50_ms": percentile(latencies_ms, 0.50),
        "first_packet_p99_ms": percentile(latencies_ms, 0.99),
        "flows": result.flows,
        "sessions": result.sessions,
        "delivered_frames": result.delivered_frames,
        "events": result.events,
        "sim_span_s": result.sim_span_s,
        "digest": result.digest,
        "fluid_stats": result.fluid_stats,
    }


def untraced_run(inputs, seconds: float) -> dict:
    results = repeat(lambda: run_once(inputs), seconds, MIN_REPEATS)
    problems = check(results)
    attempted = sum(r.flows for r in results)
    failed = sum(r.failed_flows for r in results)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": end_to_end(results),
        "report": {
            "repeats": len(results),
            "wall_s": [r.wall_s for r in results],
            "setup_s": [r.setup_s for r in results],
            "failed_flow_share": failed / attempted,
            "problems": problems,
            **summary(results[0]),
        },
    }


def traced_run(inputs, seconds: float) -> dict:
    def pair():
        plain = run_once(inputs)
        gc.collect()
        with Tracer() as tracer:
            traced = run_once(inputs, before_traffic=tracer.reset)
        return plain, traced, tracer

    runs = repeat(pair, seconds, MIN_TRACED_PAIRS)
    problems = check(
        [plain for plain, _, _ in runs],
        traced=[(plain, traced) for plain, traced, _ in runs],
    )
    rows = [per_layer(tracer, traced, plain) for plain, traced, tracer in runs]
    metrics = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    unmeasured = runs[0][2].unmeasured
    for name in metrics:
        if name.split(".")[0] in unmeasured:
            metrics[name] = None
    attempted = sum(r.flows for p in runs for r in p[:2])
    failed = sum(r.failed_flows for p in runs for r in p[:2])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "repeats": len(runs),
            "untraced_wall_s": [plain.wall_s for plain, _, _ in runs],
            "traced_wall_s": [traced.wall_s for _, traced, _ in runs],
            "unmeasured": unmeasured,
            "problems": problems,
            **summary(runs[0][1]),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed)
    run = traced_run if args.trace else untraced_run
    print(json.dumps(run(inputs, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
