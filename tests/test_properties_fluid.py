"""Property suite: the fluid kernel against the packet-level oracle.

Every test runs one seeded CBR mix twice -- pure packet fidelity, then
with a :class:`FluidRegion` attached -- and asserts the equivalence
contract (see ``repro/workloads/fluidcheck.py``): identical per-flow
sent/delivered outcomes and identical control-plane event-log digests.
Three tiers cover 300 randomized mixes:

* 200 small mixes (5 flows, 2.5 s window),
* 60 denser mixes (8 flows, 4 s window, faster rates),
* 40 fault mixes (a mid-run link flap; sent counts and digests stay
  exact, delivered frames tolerate the in-flight packets the oracle
  drops at the fault boundary -- see DESIGN.md).

Plus targeted scenarios: a shared bottleneck that must *refuse*
fast-forward, a sanity check that the kernel actually engages (a
suite that silently never suspends would pass vacuously), and
hand-built drop-tail backlogs at every governor tick -- one that
drains before the next frame arrives (admit) and one that does not
(refuse).
"""

import pytest

from repro import build_livesec_network
from repro.workloads.fluidcheck import (
    DRAIN_S, collect, compare_modes, diff_modes,
)
from repro.workloads.flows import CbrUdpFlow

SMALL = dict(num_flows=5, traffic_s=2.5, max_rate_bps=2e6)
DENSE = dict(num_flows=8, traffic_s=4.0, max_rate_bps=4e6)
FLAP = dict(num_flows=5, traffic_s=2.5, max_rate_bps=2e6, link_flap=True)


def assert_equivalent(result):
    assert result["equivalent"], {
        "seed": result.get("seed"),
        "digests_equal": result["digests_equal"],
        "flow_mismatches": result["flow_mismatches"],
        "fluid_stats": result["fluid"].fluid_stats,
    }


@pytest.mark.parametrize("seed", range(200))
def test_small_mix_matches_oracle(seed):
    assert_equivalent(compare_modes(seed, **SMALL))


@pytest.mark.parametrize("seed", range(200, 260))
def test_dense_mix_matches_oracle(seed):
    assert_equivalent(compare_modes(seed, **DENSE))


@pytest.mark.parametrize("seed", range(300, 340))
def test_link_flap_mix_matches_oracle(seed):
    # Delivery is credited at emission, so packets in flight when the
    # flap lands are credited analytically while the oracle drops them
    # mid-path: allow the path's bandwidth-delay product in frames.
    assert_equivalent(
        compare_modes(seed, delivered_tolerance_frames=2, **FLAP)
    )


def test_kernel_actually_engages():
    """Guard against vacuous passes: in a plain steady mix the fluid
    run must really suspend flows and synthesize most of the traffic
    with far fewer events."""
    result = compare_modes(7, **SMALL)
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    assert stats["packets_synthesized"] > 0
    total_sent = sum(row["sent_packets"] for row in result["fluid"].flows)
    assert stats["packets_synthesized"] > 0.5 * total_sent
    assert (result["fluid"].events_processed
            < 0.5 * result["packet"].events_processed)


def test_shared_bottleneck_refuses_and_stays_exact():
    """Oversubscribed links: while demand exceeds the headroom cap --
    or a drop-tail backlog is still draining after it subsides -- the
    refuse policy must hold every flow at packet fidelity (drops and
    queueing would make synthesis a model, not an equivalence).  The
    kernel may legitimately engage once the survivors fit, and the
    outcome must still match the oracle exactly."""
    result = compare_modes(
        11, num_flows=4, hosts_per_as=1, traffic_s=1.5, max_rate_bps=60e6
    )
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    refused = (stats["refusals"].get("congested", 0)
               + stats["refusals"].get("queue-backlog", 0))
    assert refused >= 1


def test_rate_policy_mix_keeps_wire_schedule():
    """The modeled ``rate`` policy changes delivery accounting under
    congestion but must never change what is *sent*: with headroom the
    two policies coincide, so an uncongested rate-policy mix still
    matches the oracle exactly."""
    assert_equivalent(compare_modes(5, congestion="rate", **SMALL))


GOVERNOR_S = 0.05  # FluidRegion's default governor interval
BACKLOG_LEAD_S = 10e-6  # < one 1500 B frame's 120 us at 100 Mbps


def run_tick_aligned(fluid, queued_sibling):
    """Leave a real 1500 B frame serializing on an access link at every
    governor tick: the ticker flow emits ``BACKLOG_LEAD_S`` before each
    tick (the first flow's start anchors the governor's grid) and
    paces exactly one frame per tick.  Its own next frame comes a whole
    tick later, long after that backlog drained.  With
    ``queued_sibling`` a second flow from the same host emits
    ``BACKLOG_LEAD_S`` *after* each tick, so its next frame really
    queues behind the ticker's."""
    net = build_livesec_network(
        topology="linear", num_as=2, hosts_per_as=2, fluid=fluid
    )
    net.start()
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    per_tick_bps = 1500 * 8 / GOVERNOR_S
    specs = [
        (hosts[0], hosts[2], 2e6, 1000, 0.0),
        (hosts[1], hosts[3], per_tick_bps, 1500, GOVERNOR_S - BACKLOG_LEAD_S),
    ]
    if queued_sibling:
        specs.append(
            (hosts[1], hosts[2], per_tick_bps, 1500,
             GOVERNOR_S + BACKLOG_LEAD_S)
        )
    flows = []
    for index, (src, dst, rate, size, delay) in enumerate(specs):
        flow = CbrUdpFlow(
            net.sim, src, dst.ip, rate_bps=rate, packet_size=size,
            duration_s=1.5, sport=30000 + index, dport=9000 + index,
        )
        flows.append(flow.start(delay_s=delay))
    net.run(1.5 + DRAIN_S)
    return collect(net, flows, [spec[1] for spec in specs])


def test_draining_backlog_admits_and_stays_exact():
    """A real frame in the buffer at the tick only matters if the
    flow's next frame would wait behind it.  Here it never would, so
    the kernel must suspend (refusing every tick would pass the oracle
    check vacuously) and still match the oracle exactly."""
    result = diff_modes(
        run_tick_aligned(False, queued_sibling=False),
        run_tick_aligned(True, queued_sibling=False),
    )
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    assert stats["refusals"].get("queue-backlog", 0) == 0
    total_sent = sum(row["sent_packets"] for row in result["fluid"].flows)
    assert stats["packets_synthesized"] > 0.5 * total_sent


def test_serializing_backlog_refuses_and_stays_exact():
    """A frame that would arrive while a real one is still serializing
    queues in the oracle, so the attempt is refused."""
    result = diff_modes(
        run_tick_aligned(False, queued_sibling=True),
        run_tick_aligned(True, queued_sibling=True),
    )
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    assert stats["refusals"].get("queue-backlog", 0) >= 1
    assert stats["packets_synthesized"] == 0
