"""Unit tests for the deployment facade.

The lifecycle and runtime-addition tests take the deployment builder
from the ``build`` fixture; their ``Sharded*`` subclasses override it,
so every inherited test also runs against a 2-shard deployment.
"""

from functools import partial

import pytest

from repro import build_livesec_network
from repro.core.deployment import build_sharded_network
from repro.net.simulator import Simulator


@pytest.fixture
def build():
    return build_livesec_network


@pytest.fixture
def net(build):
    """A started 2-switch deployment with no policies."""
    net = build(topology="linear", num_as=2, hosts_per_as=1)
    net.start()
    return net


class ShardedShape:
    """Mixin: rerun the inherited tests on two controller shards (one
    switch each on the 2-switch topology)."""

    @pytest.fixture
    def build(self):
        return partial(build_sharded_network, num_shards=2)


class TestBuild:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_livesec_network(topology="torus")

    def test_unknown_element_type_rejected(self):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1)
        with pytest.raises(ValueError):
            net.add_element("quantum-ids", net.topology.as_switches[0])

    def test_elements_distributed_round_robin(self):
        net = build_livesec_network(
            topology="linear", num_as=3, hosts_per_as=1,
            elements=[("ids", 3)],
        )
        dpids = set()
        for element in net.elements:
            port = element.port(1)
            dpids.add(port.peer().node.dpid)
        assert len(dpids) == 3

    def test_elements_provisioned_with_valid_certs(self):
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 1)],
        )
        element = net.elements[0]
        assert net.controller.registry.verify_certificate(
            element.mac, element.certificate)

    def test_external_simulator_accepted(self):
        sim = Simulator()
        net = build_livesec_network(sim=sim, topology="linear", num_as=2,
                                    hosts_per_as=1)
        assert net.sim is sim

    def test_invalid_on_no_element(self):
        with pytest.raises(ValueError):
            build_livesec_network(topology="linear", on_no_element="retry")


class TestLifecycle:
    def test_start_twice_rejected(self, net):
        with pytest.raises(RuntimeError):
            net.start()

    def test_start_converges_discovery(self, net):
        for controller in net.controllers:
            assert controller.nib.is_full_mesh()
        assert net.started

    def test_run_advances_clock(self, net):
        before = net.sim.now
        net.run(1.5)
        assert net.sim.now == pytest.approx(before + 1.5)

    def test_gateway_property(self, net):
        assert net.gateway.ip == "10.255.255.254"

    def test_gateway_missing_raises(self, build):
        net = build(topology="linear", num_as=2, hosts_per_as=1,
                    with_gateway=False)
        with pytest.raises(RuntimeError):
            net.gateway

    def test_elements_of_type(self, build):
        net = build(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 2), ("l7", 1)],
        )
        assert len(net.elements_of_type("ids")) == 2
        assert len(net.elements_of_type("l7")) == 1
        assert net.elements_of_type("virus") == []


class TestShardedLifecycle(ShardedShape, TestLifecycle):
    pass


class TestRuntimeAdditions:
    def test_add_user_at_runtime(self, net):
        switch = net.topology.as_switches[0]
        host = net.add_user("late", switch)
        host.announce()
        net.run(1.0)
        owner = net._owner(switch.dpid)
        assert owner.nib.host_by_mac(host.mac) is not None

    def test_add_element_at_runtime_joins_registry(self, net):
        switch = net.topology.as_switches[-1]
        element = net.add_element("ids", switch)
        net.run(2.0)
        owner = net._owner(switch.dpid)
        assert owner.registry.is_element(element.mac)
        assert owner.registry.online_elements("ids")

    def test_port_capacities_registered_for_monitoring(self, net):
        for switch in net.topology.as_switches:
            capacities = net._owner(switch.dpid)._port_capacity
            for number, port in switch.ports.items():
                if port.link is not None:
                    assert (switch.dpid, number) in capacities

    def test_duplicate_element_name_rejected(self, net):
        # Fault plans resolve elements by name, so a second "ids-2"
        # would let element_crash("ids-2") hit the wrong VM.
        switch = net.topology.as_switches[0]
        net.add_element("ids", switch, name="ids-2")
        ports = len(switch.ports)
        with pytest.raises(ValueError, match="ids-2"):
            net.add_element("ids", switch)  # default name "ids-2"
        with pytest.raises(ValueError, match="ids-2"):
            net.add_element("l7", switch, name="ids-2")
        assert [e.name for e in net.elements] == ["ids-2"]
        assert len(switch.ports) == ports
        net.add_element("ids", switch, name="ids-3")


class TestShardedRuntimeAdditions(ShardedShape, TestRuntimeAdditions):
    pass
