"""Property test for the shard fabric (satellite of the sharding PR):
over hundreds of randomized user/flow cases, a sharded deployment must
produce *exactly* the session outcomes of the single-controller oracle
-- same per-flow admission class (chained / dropped / default-allowed),
same policy attribution -- because sharding is a control-plane
partition, never a semantic change.
"""

import random

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.policy import (
    FailMode,
    FlowSelector,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.faults.scenarios import GATEWAY_IP
from repro.workloads import CbrUdpFlow

NUM_CASES = 500
NUM_AS = 4
HOSTS_PER_AS = 2
CHAIN_DPORT = 9000
DROP_DPORT = 9999
UNMATCHED_DPORT = 7777
LAUNCH_WINDOW_S = 3.0
SETTLE_S = 2.0


def oracle_policies():
    """Three outcome classes: chained via ids, dropped, and (for any
    other gateway-bound port) the default-allow path."""
    table = PolicyTable()
    table.begin(source="property-test").add(Policy(
        name="chain-ids",
        selector=FlowSelector(dst_ip=GATEWAY_IP, tp_dst=CHAIN_DPORT),
        action=PolicyAction.CHAIN,
        service_chain=("ids",),
        fail_mode=FailMode("open"),
    )).add(Policy(
        name="drop-badport",
        selector=FlowSelector(dst_ip=GATEWAY_IP, tp_dst=DROP_DPORT),
        action=PolicyAction.DROP,
    )).commit()
    return table


def make_cases(seed: int):
    """The randomized workload: (host_name, sport, dport, start_s)
    tuples, identical for both deployments by construction."""
    rng = random.Random(seed)
    host_names = [
        f"h{i + 1}_{j + 1}"
        for i in range(NUM_AS)
        for j in range(HOSTS_PER_AS)
    ]
    cases = []
    for index in range(NUM_CASES):
        cases.append((
            rng.choice(host_names),
            20000 + index,  # unique five-tuples
            rng.choice((CHAIN_DPORT, DROP_DPORT, UNMATCHED_DPORT)),
            rng.uniform(0.0, LAUNCH_WINDOW_S),
        ))
    return cases


def run_cases(net, cases):
    """Launch every case; returns per-flow outcome classes keyed by
    (src_ip, sport, dport), plus the FLOW_BLOCKED event count.

    A DROP policy never mints a session (the flow dies at its ingress
    drop rule), so its outcome class is the *absence* of a session --
    the blocked-event count is what proves the drop actually ran.
    """
    from repro.core.events import EventKind

    net.start()
    for host_name, sport, dport, start_s in cases:
        host = net.topology.host_by_name(host_name)
        CbrUdpFlow(
            net.sim, host, GATEWAY_IP, rate_bps=1e6,
            sport=sport, dport=dport, max_packets=3,
        ).start(delay_s=start_s)
    net.run(LAUNCH_WINDOW_S + SETTLE_S)

    outcomes = {}
    blocked_events = 0
    for controller in net.controllers:
        for session in controller.sessions:
            key = (session.flow.nw_src, session.flow.tp_src,
                   session.flow.tp_dst)
            outcome = (
                "chained" if session.element_macs else "allowed",
                session.policy_name,
            )
            # A flow must never carry two different outcomes (e.g. one
            # shard allowing what another chained).
            assert outcomes.get(key, outcome) == outcome, (key, outcome)
            outcomes[key] = outcome
        blocked_events += sum(
            1 for event in controller.log.all()
            if event.kind == EventKind.FLOW_BLOCKED
        )
    return outcomes, blocked_events


def hosts_ip_index(net):
    return {
        host.name: host.ip
        for host in net.topology.hosts
    }


def test_sharded_outcomes_match_single_controller_oracle():
    cases = make_cases(seed=7)

    oracle = build_livesec_network(
        topology="linear",
        policies=oracle_policies(),
        elements=[("ids", 2)],
        num_as=NUM_AS,
        hosts_per_as=HOSTS_PER_AS,
        dispatcher="polling",
    )
    expected, expected_blocks = run_cases(oracle, cases)

    sharded = build_sharded_network(
        num_shards=2,
        topology="linear",
        policies=oracle_policies,
        elements=[("ids", 2)],
        num_as=NUM_AS,
        hosts_per_as=HOSTS_PER_AS,
        dispatcher="polling",
    )
    actual, actual_blocks = run_cases(sharded, cases)

    # Same address plan, so outcome keys are directly comparable.
    assert hosts_ip_index(oracle) == hosts_ip_index(sharded)

    # Case for case: a dropped flow has no session in *either* world;
    # every other flow has a session with the same class and policy.
    ips = hosts_ip_index(oracle)
    drop_cases = 0
    for host_name, sport, dport, _ in cases:
        key = (ips[host_name], sport, dport)
        if dport == DROP_DPORT:
            drop_cases += 1
            assert key not in expected, key
            assert key not in actual, key
        else:
            assert key in expected, key
            assert key in actual, key

    # The property: identical outcome classes across the whole run.
    assert actual == expected

    # The drops really happened, once per dropped case, in both.
    assert expected_blocks == drop_cases
    assert actual_blocks == drop_cases

    # And the workload genuinely exercised every class.
    classes = {outcome[0] for outcome in expected.values()}
    assert classes == {"chained", "allowed"}
    assert drop_cases > 0
