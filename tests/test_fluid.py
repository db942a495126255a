"""Unit tests for the fluid fast-forward kernel (repro.net.fluid).

The oracle-equivalence property suite (test_properties_fluid.py) does
the heavy lifting; these tests pin the kernel's mechanics one piece at
a time: eligibility walks and their refusal reasons, the max-min
allocator, materialization triggers, and the observability surface.
"""

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.fluid import FluidRegion, max_min_rates
from repro.net.node import Node, connect
from repro.net.simulator import Simulator
from repro.workloads.flows import CbrUdpFlow
from repro.workloads.fluidcheck import collect, diff_modes


def fluid_net(**kwargs):
    net = build_livesec_network(
        topology="linear", num_as=2, hosts_per_as=2, fluid=True, **kwargs
    )
    net.start()
    return net


def endpoints(net):
    return [h for h in net.topology.hosts if h is not net.topology.gateway]


def steady_flow(net, src, dst, rate_bps=2e6, **kwargs):
    return CbrUdpFlow(net.sim, src, dst.ip, rate_bps=rate_bps,
                      packet_size=1000, **kwargs).start()


class TestMaxMinRates:
    def test_unconstrained_demands_are_met(self):
        rates = max_min_rates({"a": 5.0, "b": 3.0}, [(100.0, ["a", "b"])])
        assert rates == {"a": 5.0, "b": 3.0}

    def test_saturated_link_splits_fairly(self):
        rates = max_min_rates({"a": 10.0, "b": 10.0}, [(12.0, ["a", "b"])])
        assert rates["a"] == pytest.approx(6.0)
        assert rates["b"] == pytest.approx(6.0)

    def test_small_demand_frees_share_for_big_one(self):
        rates = max_min_rates({"a": 4.0, "b": 10.0}, [(12.0, ["a", "b"])])
        assert rates["a"] == pytest.approx(4.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_multi_constraint_bottleneck(self):
        # b is pinched on its private 2-unit link even though the
        # shared one has room; a takes the slack of the shared link.
        rates = max_min_rates(
            {"a": 10.0, "b": 10.0},
            [(12.0, ["a", "b"]), (2.0, ["b"])],
        )
        assert rates["b"] == pytest.approx(2.0)
        assert rates["a"] == pytest.approx(10.0)


class TestConstruction:
    def test_unknown_congestion_policy_rejected(self):
        with pytest.raises(ValueError):
            FluidRegion(Simulator(), congestion="drop")

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            FluidRegion(Simulator(), max_utilization=1.5)

    def test_double_attach_rejected(self):
        sim = Simulator()
        FluidRegion(sim)
        with pytest.raises(RuntimeError):
            FluidRegion(sim)

    def test_deployment_wires_region_and_metrics(self):
        net = fluid_net()
        assert net.fluid is not None
        assert net.sim.fluid is net.fluid
        snap = net.controller.metrics.snapshot()
        assert snap.get("sim.fluid_suspended_flows") is not None
        assert snap.get("sim.fluid_time_saved_s") is not None


class TestSuspension:
    def test_steady_flow_is_suspended_and_synthesized(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(2.0)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 1
        assert stats["packets_synthesized"] > 0
        assert stats["time_saved_s"] > 0.5
        assert flow.packets_sent > 100
        assert flow.delivered_bytes(hosts[1]) == flow.bytes_sent

    def test_stop_boundary_resumes_and_unregisters(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1], duration_s=1.0)
        net.run(3.0)
        stats = net.fluid.stats()
        assert not flow.running
        assert stats["suspended_flows"] == 0
        assert stats["registered_flows"] == 0
        assert stats["resumes"] >= 1

    def test_finishing_flow_is_not_resuspended(self):
        # 4 ms pacing: the last frame leaves at +0.996 s and the stop
        # emit fires at +1.0 s; the 10th governor tick lands at
        # +0.998 s, between the two.  The resumed flow is still
        # running there but sends nothing more, so the tick must skip
        # it rather than suspend and resume it a second time.
        def run(fluid):
            net = build_livesec_network(
                topology="linear", num_as=2, hosts_per_as=2, fluid=fluid,
                fluid_config={"governor_interval_s": 0.0998},
            )
            net.start()
            hosts = endpoints(net)
            flow = steady_flow(net, hosts[0], hosts[1], duration_s=0.998)
            net.run(3.0)
            return collect(net, [flow], [hosts[1]])

        result = diff_modes(run(False), run(True))
        assert result["equivalent"], result["flow_mismatches"]
        stats = result["fluid"].fluid_stats
        assert stats["packets_synthesized"] > 0
        assert stats["resumes"] == 1

    def test_oversubscribed_path_refused(self):
        # Both flows squeeze through one 100 Mbps access link; demand
        # exceeds the 0.95 headroom cap, so the refuse policy keeps
        # everything at packet fidelity.
        net = fluid_net()
        hosts = endpoints(net)
        steady_flow(net, hosts[0], hosts[1], rate_bps=60e6)
        steady_flow(net, hosts[0], hosts[1], rate_bps=60e6)
        net.run(1.0)
        stats = net.fluid.stats()
        # Depending on timing the walk sees the standing drop-tail
        # backlog ("queue-backlog") or the allocator sees the
        # oversubscription ("congested"); either way, no suspension.
        refused = (stats["refusals"].get("congested", 0)
                   + stats["refusals"].get("queue-backlog", 0))
        assert refused >= 1
        assert stats["suspended_flows"] == 0
        assert stats["packets_synthesized"] == 0

    def test_rate_policy_suspends_and_accounts_drops(self):
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2, fluid=True,
            fluid_config={"congestion": "rate"},
        )
        net.start()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1], rate_bps=150e6)
        net.run(1.5)
        stats = net.fluid.stats()
        assert stats["packets_synthesized"] > 0
        # Thinned to the bottleneck share: fewer bytes arrive than
        # were sent, and the gap shows up as first-hop drops.
        assert flow.delivered_bytes(hosts[1]) < flow.bytes_sent
        access = hosts[0].ports[1].link
        assert access.stats(hosts[0].ports[1])["dropped"] > 0


class TestWalkRefusals:
    def test_cold_flow_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = CbrUdpFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6)
        flow.running = True
        flow._started_at = net.sim.now
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "cold"

    def test_stopped_flow_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = CbrUdpFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6)
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "not-running"

    def test_custom_emitter_refused(self):
        class ScanFlow(CbrUdpFlow):
            def _emit(self):
                super()._emit()

        net = fluid_net()
        hosts = endpoints(net)
        flow = ScanFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6).start()
        net.run(1.0)
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "custom-emitter"
        assert net.fluid.stats()["suspended_flows"] == 0

    def test_sparse_flow_refused(self):
        # 10 packets/s against a 5 s idle timeout is fine; against a
        # 0.5 s timeout the oracle would race expiry, so refuse.
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2, fluid=True,
            idle_timeout_s=0.15,
        )
        net.start()
        hosts = endpoints(net)
        steady_flow(net, hosts[0], hosts[1], rate_bps=1e5)
        net.run(1.0)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["refusals"].get("sparse-flow", 0) >= 1

    def test_link_down_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 1
        hosts[0].ports[1].link.up = False  # bypass set_up's materialize
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "link-down"


class TestMaterialization:
    def run_suspended(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 1
        return net, hosts, flow

    def test_link_admin_change_materializes(self):
        net, hosts, _flow = self.run_suspended()
        hosts[0].ports[1].link.set_up(False)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["materializations"].get("link-admin") == 1

    def test_new_flow_start_materializes(self):
        net, hosts, _flow = self.run_suspended()
        steady_flow(net, hosts[1], hosts[0])
        net.run(0.2)
        assert net.fluid.stats()["materializations"].get("flow-start", 0) >= 1

    def test_tcp_open_materializes_and_blocks_resuspension(self):
        net, hosts, _flow = self.run_suspended()
        conn = object()
        net.fluid.tcp_opened(conn)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["materializations"].get("tcp-open") == 1
        net.run(0.5)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["refusals"].get("tcp-active", 0) >= 1
        net.fluid.tcp_closed(conn)
        net.run(0.5)
        assert net.fluid.stats()["suspended_flows"] == 1

    def test_counters_are_current_at_materialization(self):
        net, hosts, flow = self.run_suspended()
        before = flow.packets_sent
        seen = {}

        def probe():
            net.fluid.materialize_all("test")
            seen["t"] = net.sim.now
            seen["sent"] = flow.packets_sent
            seen["delivered"] = flow.delivered_bytes(hosts[1])

        # Probe off the emission grid so "strictly before" is
        # unambiguous; the advance runs before the event fires.
        net.sim.schedule(0.5003, probe)
        net.run(0.6)
        grid = 0
        while flow.paced_at(grid) < seen["t"]:
            grid += 1
        assert seen["sent"] == grid > before
        assert seen["delivered"] == seen["sent"] * flow.packet_size


class TestBacklogAccessor:
    class Sink(Node):
        def receive(self, frame, in_port):
            pass

    def test_backlog_done_leaves_pending_done_untouched(self, sim):
        a, b = self.Sink(sim, "a"), self.Sink(sim, "b")
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.001)
        direction = link._directions[id(a.port(1))]
        assert direction.backlog_done() == float("-inf")
        for _ in range(3):  # 1250 B = 10 ms each at 1 Mbps
            a.send(pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2,
                                size=1250), 1)
        queued = list(direction.pending_done)
        assert direction.backlog_done() == pytest.approx(0.030)
        sim.run(until=0.025)  # two of the three have serialized
        assert direction.backlog_done() == pytest.approx(0.030)
        assert list(direction.pending_done) == queued
        assert direction.occupancy(sim.now) == 1  # the pruning reader
