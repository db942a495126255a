"""The three benchmark workloads: seeded inputs, build, traffic phase.

Each workload is a batch run of a fixed simulated scenario.  Its inputs
(which hosts talk, when each flow starts, where the synthetic users sit)
come only from the workload seed through :func:`generate`; the program
receives nothing but those generated inputs.  :func:`run_once` builds
the deployment through the public builders, times set-up and the
traffic phase separately, and returns everything the output checks and
the metrics need.

Traffic is open-loop CBR generated in simulated time, so a slower
simulator does not receive less load: every flow's emission schedule is
fixed by the generated inputs before the run starts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import build_livesec_network
from repro.core.deployment import build_sharded_network
from repro.core.policy import (
    FlowSelector,
    Granularity,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.workloads.flows import CbrUdpFlow

GATEWAY_IP = "10.255.255.254"

# cbr-packet / cbr-fluid: the E19 fabric and flow mix.
CBR_NUM_AS = 8
CBR_HOSTS_PER_AS = 16
CBR_FLOWS = 1000
CBR_GATEWAY_FLOWS = 250  # steered through the IDS chain (cbr-packet only)
CBR_IDS_ELEMENTS = 8
CBR_RATE_BPS = 100e3
CBR_PACKET_SIZE = 250
CBR_START_WINDOW_S = 0.1  # the first-packet punt burst
E19_SCHEDULE_SEED = 19
CBR_DURATION_S = 0.5  # per flow, after its start
CBR_DRAIN_S = 0.05  # lets every frame in flight arrive before the cut

# session-churn: the E18 2-shard configuration.
CHURN_SHARDS = 2
CHURN_NUM_AS = 16
CHURN_IDS_ELEMENTS = 16
CHURN_USERS = 100_000
CHURN_FLOWS = 1200
CHURN_SPACING_S = 0.003
CHURN_JITTER_S = 0.001
CHURN_PACKETS = 4
CHURN_RATE_BPS = 1e6
CHURN_PACKET_SIZE = 1500
CHURN_DRAIN_S = 0.5

WORKLOADS = ("cbr-packet", "cbr-fluid", "session-churn")


@dataclass(frozen=True)
class FlowSpec:
    """One generated flow: endpoints by index, start offset, ports.

    ``dst`` is a host index, or None for the Internet gateway.
    """

    src: int
    dst: Optional[int]
    start_s: float
    sport: int
    dport: int


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run receives, generated from the seed."""

    workload: str
    flows: Tuple[FlowSpec, ...]
    # session-churn only: the AS switch (dpid) each synthetic user sits on.
    user_dpids: Tuple[int, ...] = ()
    traffic_s: float = 0.0


@dataclass
class Result:
    """What one build-and-run of a workload produced."""

    setup_s: float
    wall_s: float
    sim_span_s: float
    flows: int
    sessions: int
    delivered_frames: int
    events: int
    compactions: int
    element_drops: int
    sent_bytes: List[int]
    delivered_bytes: List[int]
    # Simulated seconds from each flow's first emission to its first
    # delivery, in flow order; None for a flow never delivered.
    first_packet_s: List[Optional[float]]
    digest: str
    fluid_stats: Optional[dict] = None

    @property
    def failed_flows(self) -> int:
        """Flows short of their sent bytes, or missing a session."""
        short = sum(
            1 for sent, got in zip(self.sent_bytes, self.delivered_bytes)
            if got < sent or sent == 0
        )
        return max(short, self.flows - self.sessions)


def _e19_start_offsets() -> List[float]:
    """E19's flow start offsets: the stream of ``random.Random(19)``
    drawing two endpoints and then a start per flow.

    Start phases, not endpoints, decide whether the fluid kernel's
    governor ever finds every buffer on every path empty at a tick
    (``queue-backlog`` refusals otherwise).  With seeded phases, 6 of 10
    seeds suspended at some point and 4 never did, so ``wall_s`` of
    ``cbr-fluid`` was bimodal across seeds (1.5 s to 3.7 s).  The
    schedule is therefore fixed, and is E19's, on which ROADMAP
    recorded the kernel refusing every attempt; the seed draws the
    endpoints.
    """
    stream = random.Random(E19_SCHEDULE_SEED)
    offsets = []
    for _ in range(CBR_FLOWS):
        stream.sample(range(CBR_NUM_AS * CBR_HOSTS_PER_AS), 2)
        offsets.append(stream.uniform(0.0, CBR_START_WINDOW_S))
    return offsets


def generate(workload: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed`` (same seed, same inputs)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("cbr-packet", "cbr-fluid"):
        num_hosts = CBR_NUM_AS * CBR_HOSTS_PER_AS
        steered = (
            set(rng.sample(range(CBR_FLOWS), CBR_GATEWAY_FLOWS))
            if workload == "cbr-packet" else set()
        )
        flows = []
        for index, start_s in enumerate(_e19_start_offsets()):
            src, dst = rng.sample(range(num_hosts), 2)
            flows.append(FlowSpec(
                src=src,
                dst=None if index in steered else dst,
                start_s=start_s,
                sport=30000 + index,
                dport=9000 + (index % 500),
            ))
        return Inputs(
            workload, tuple(flows),
            traffic_s=CBR_START_WINDOW_S + CBR_DURATION_S + CBR_DRAIN_S,
        )
    if workload == "session-churn":
        flows = tuple(
            FlowSpec(
                src=index % CHURN_NUM_AS,
                dst=None,
                start_s=index * CHURN_SPACING_S
                + rng.uniform(0.0, CHURN_JITTER_S),
                sport=30000 + index,
                dport=9000,
            )
            for index in range(CHURN_FLOWS)
        )
        user_dpids = tuple(
            1 + rng.randrange(CHURN_NUM_AS) for _ in range(CHURN_USERS)
        )
        return Inputs(
            workload, flows, user_dpids=user_dpids,
            traffic_s=CHURN_FLOWS * CHURN_SPACING_S + CHURN_DRAIN_S,
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def ids_chain_policies() -> PolicyTable:
    """Internet-bound traffic traverses an IDS; the rest is allowed."""
    table = PolicyTable()
    table.begin().add(Policy(
        name="inspect-internet",
        selector=FlowSelector(dst_ip=GATEWAY_IP),
        action=PolicyAction.CHAIN,
        service_chain=("ids",),
        granularity=Granularity.FLOW,
    )).commit()
    return table


def _user_address(index: int) -> Tuple[str, str]:
    mac = "02:fe:{:02x}:{:02x}:{:02x}:{:02x}".format(
        (index >> 24) & 0xFF, (index >> 16) & 0xFF,
        (index >> 8) & 0xFF, index & 0xFF,
    )
    ip = "172.{}.{}.{}".format(
        16 + (index >> 16), (index >> 8) & 0xFF, index & 0xFF
    )
    return mac, ip


class _FirstPacketProbe:
    """Records when each flow's first frame reaches its destination.

    It shadows ``receive`` on the destination host objects only until
    every flow bound there has been seen, then removes itself, so the
    steady phase runs the program's own code path.  It schedules no
    events and leaves ``default_handler`` and the app handlers alone
    (the fluid kernel refuses hosts that have either).
    """

    def __init__(self, sim, pairs):
        self.sim = sim
        self.arrival: Dict[int, float] = {}
        self._pending: Dict[object, Dict[int, object]] = {}
        for flow, dst in pairs:
            self._pending.setdefault(dst, {})[flow.flow_id] = flow
        for dst in self._pending:
            dst.receive = self._receiver(dst)

    def _receiver(self, host):
        waiting = self._pending[host]
        deliver = type(host).receive

        def receive(frame, in_port):
            flow = waiting.pop(frame.flow_id, None)
            if flow is not None:
                self.arrival[frame.flow_id] = (
                    self.sim.now - flow.paced_at(0)
                )
                if not waiting:
                    del host.receive
            deliver(host, frame, in_port)

        return receive


def _start_flows(net, inputs: Inputs, hosts, rate_bps, packet_size,
                 duration_s=None, max_packets=None):
    pairs = []
    for spec in inputs.flows:
        dst = net.gateway if spec.dst is None else hosts[spec.dst]
        flow = CbrUdpFlow(
            net.sim, hosts[spec.src], dst.ip,
            rate_bps=rate_bps, packet_size=packet_size,
            duration_s=duration_s, max_packets=max_packets,
            sport=spec.sport, dport=spec.dport,
        )
        flow.start(delay_s=spec.start_s)
        pairs.append((flow, dst))
    return pairs


def _build_cbr(inputs: Inputs):
    fluid = inputs.workload == "cbr-fluid"
    net = build_livesec_network(
        topology="linear",
        num_as=CBR_NUM_AS,
        hosts_per_as=CBR_HOSTS_PER_AS,
        policies=ids_chain_policies(),
        elements=() if fluid else (("ids", CBR_IDS_ELEMENTS),),
        fluid=fluid,
    )
    net.start()
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    pairs = _start_flows(
        net, inputs, hosts, CBR_RATE_BPS, CBR_PACKET_SIZE,
        duration_s=CBR_DURATION_S,
    )
    return net, pairs


def _build_churn(inputs: Inputs):
    net = build_sharded_network(
        num_shards=CHURN_SHARDS,
        topology="linear",
        policies=ids_chain_policies,
        elements=(("ids", CHURN_IDS_ELEMENTS),),
        num_as=CHURN_NUM_AS,
        hosts_per_as=1,
    )
    net.start()
    for index, dpid in enumerate(inputs.user_dpids):
        mac, ip = _user_address(index)
        net.member_of(dpid).adopt_host(mac, ip, dpid, 2000 + index)
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    pairs = _start_flows(
        net, inputs, hosts, CHURN_RATE_BPS, CHURN_PACKET_SIZE,
        max_packets=CHURN_PACKETS,
    )
    return net, pairs


def _sessions(net) -> int:
    if hasattr(net, "total_sessions_created"):
        return net.total_sessions_created()
    return net.controller.sessions.created


def _digest(net) -> str:
    if hasattr(net, "event_digest"):
        return net.event_digest()
    return net.controller.log.control_digest()


def _fluid_stats(net) -> Optional[dict]:
    region = getattr(net, "fluid", None)
    return region.stats() if region is not None else None


def run_once(inputs: Inputs,
             before_traffic: Optional[Callable[[], None]] = None) -> Result:
    """Build, start and populate the deployment, then run the traffic.

    Set-up (build, LLDP warm-up, elements, users, flow objects) and the
    traffic phase are timed separately; nothing else is inside either
    timer.  ``before_traffic`` runs between the two, untimed.
    """
    clock = time.perf_counter
    build = _build_churn if inputs.workload == "session-churn" else _build_cbr
    started = clock()
    net, pairs = build(inputs)
    sessions_before = _sessions(net)
    probe = _FirstPacketProbe(net.sim, pairs)
    setup_s = clock() - started
    if before_traffic is not None:
        before_traffic()

    sim = net.sim
    events_before = sim.events_processed
    compactions_before = sim.heap_compactions
    drops_before = sum(e.dropped_packets for e in net.elements)
    sim_before = sim.now
    started = clock()
    net.run(inputs.traffic_s)
    wall_s = clock() - started

    return Result(
        setup_s=setup_s,
        wall_s=wall_s,
        sim_span_s=sim.now - sim_before,
        flows=len(pairs),
        sessions=_sessions(net) - sessions_before,
        delivered_frames=sum(
            dst.rx_frames_by_flow.get(flow.flow_id, 0) for flow, dst in pairs
        ),
        events=sim.events_processed - events_before,
        compactions=sim.heap_compactions - compactions_before,
        element_drops=sum(e.dropped_packets for e in net.elements)
        - drops_before,
        sent_bytes=[flow.bytes_sent for flow, _ in pairs],
        delivered_bytes=[flow.delivered_bytes(dst) for flow, dst in pairs],
        first_packet_s=[probe.arrival.get(flow.flow_id) for flow, _ in pairs],
        digest=_digest(net),
        fluid_stats=_fluid_stats(net),
    )
