"""Unit tests for the Network Information Base."""

import hashlib
import random

import pytest

from repro.core.nib import NetworkInformationBase


@pytest.fixture
def nib():
    return NetworkInformationBase(host_timeout_s=10.0)


class TestHosts:
    def test_learn_new_host(self, nib):
        record, is_new = nib.learn_host("m1", "10.0.0.1", dpid=1, port=2,
                                        now=5.0)
        assert is_new
        assert record.first_seen == record.last_seen == 5.0
        assert nib.host_by_mac("m1") is record
        assert nib.host_by_ip("10.0.0.1") is record

    def test_refresh_updates_last_seen_only(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        record, is_new = nib.learn_host("m1", None, dpid=1, port=2, now=9.0)
        assert not is_new
        assert record.first_seen == 5.0 and record.last_seen == 9.0
        assert record.ip == "10.0.0.1"  # ip preserved on refresh

    def test_move_is_reported_as_new(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        record, is_new = nib.learn_host("m1", None, dpid=3, port=7, now=6.0)
        assert is_new  # VM migration: location changed
        assert record.dpid == 3 and record.port == 7
        assert record.first_seen == 5.0  # identity preserved

    def test_ip_update_on_refresh(self, nib):
        nib.learn_host("m1", None, dpid=1, port=2, now=1.0)
        record, _ = nib.learn_host("m1", "10.0.0.9", dpid=1, port=2, now=2.0)
        assert record.ip == "10.0.0.9"
        assert nib.host_by_ip("10.0.0.9") is record

    def test_element_flag_is_sticky(self, nib):
        nib.learn_host("m1", None, dpid=1, port=2, now=1.0, is_element=True)
        record, _ = nib.learn_host("m1", None, dpid=1, port=2, now=2.0)
        assert record.is_element

    def test_expiry_removes_stale_hosts(self, nib):
        nib.learn_host("old", None, dpid=1, port=1, now=0.0)
        nib.learn_host("new", None, dpid=1, port=2, now=8.0)
        expired = nib.expire_hosts(now=11.0)
        assert [r.mac for r in expired] == ["old"]
        assert nib.host_by_mac("old") is None
        assert nib.host_by_mac("new") is not None

    def test_remove_host_clears_ip_index(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        nib.remove_host("m1")
        assert nib.host_by_ip("10.0.0.1") is None

    def test_ip_change_on_refresh_drops_old_ip(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        record, _ = nib.learn_host("m1", "10.0.0.2", dpid=1, port=2, now=2.0)
        assert nib.host_by_ip("10.0.0.1") is None
        assert nib.host_by_ip("10.0.0.2") is record
        # A stale entry would resurface once the MAC is re-learned
        # without an IP.
        nib.remove_host("m1")
        nib.learn_host("m1", None, dpid=1, port=2, now=3.0)
        assert nib.host_by_ip("10.0.0.1") is None
        assert nib.host_by_ip("10.0.0.2") is None

    def test_ip_change_on_move_drops_old_ip(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        record, is_new = nib.learn_host("m1", "10.0.0.2", dpid=3, port=7,
                                        now=2.0)
        assert is_new
        assert nib.host_by_ip("10.0.0.1") is None
        assert nib.host_by_ip("10.0.0.2") is record

    def test_reassigned_ip_survives_previous_holder(self, nib):
        # m2 took m1's IP; m1 changing IP or leaving must not drop it.
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        taker, _ = nib.learn_host("m2", "10.0.0.1", dpid=1, port=3, now=2.0)
        nib.remove_host("m1")
        assert nib.host_by_ip("10.0.0.1") is taker
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=3.0)
        nib.learn_host("m2", "10.0.0.1", dpid=1, port=3, now=4.0)
        nib.learn_host("m1", "10.0.0.5", dpid=2, port=2, now=5.0)
        assert nib.host_by_ip("10.0.0.1") is taker

    def test_user_and_element_views(self, nib):
        nib.learn_host("u1", None, dpid=1, port=1, now=0.0)
        nib.learn_host("e1", None, dpid=1, port=2, now=0.0, is_element=True)
        assert [r.mac for r in nib.user_hosts()] == ["u1"]
        assert [r.mac for r in nib.element_hosts()] == ["e1"]


class TestLinks:
    def test_learn_and_query(self, nib):
        nib.learn_link(1, 5, 2, 6, now=0.0)
        link = nib.link(1, 2)
        assert link.src_port == 5 and link.dst_port == 6
        assert nib.link(2, 1) is None  # unidirectional

    def test_uplink_port_set_accumulates(self, nib):
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_link(1, 2, 2, 2, now=0.0)  # second (redundant) uplink
        assert nib.uplink_ports(1) == frozenset({1, 2})
        assert nib.uplink_port(1) == 1  # deterministic primary

    def test_canonical_mapping_is_lowest_pair(self, nib):
        nib.learn_link(1, 2, 2, 2, now=0.0)
        nib.learn_link(1, 1, 2, 1, now=1.0)
        nib.learn_link(1, 2, 2, 2, now=2.0)  # re-seen: must not usurp
        link = nib.link(1, 2)
        assert (link.src_port, link.dst_port) == (1, 1)

    def test_rebuild_links_drops_stale_uplinks(self, nib):
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_link(1, 2, 2, 2, now=0.0)

        class FakeLink:
            def __init__(self, sd, sp, dd, dp):
                self.src_dpid, self.src_port = sd, sp
                self.dst_dpid, self.dst_port = dd, dp

        nib.rebuild_links([FakeLink(1, 2, 2, 2)], now=5.0)
        assert nib.uplink_ports(1) == frozenset({2})
        assert nib.uplink_port(1) == 2

    def test_uplink_unknown_before_discovery(self, nib):
        assert nib.uplink_port(9) is None
        assert nib.uplink_ports(9) == frozenset()


class TestSwitchesAndMesh:
    def test_full_mesh_detection(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.add_switch(2, "b", (1,), now=0.0)
        assert not nib.is_full_mesh()
        nib.learn_link(1, 1, 2, 1, now=0.0)
        assert not nib.is_full_mesh()
        nib.learn_link(2, 1, 1, 1, now=0.0)
        assert nib.is_full_mesh()

    def test_single_switch_is_trivially_full_mesh(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        assert nib.is_full_mesh()

    def test_remove_switch_cascades(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.add_switch(2, "b", (1,), now=0.0)
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_host("m1", None, dpid=1, port=2, now=0.0)
        nib.remove_switch(1)
        assert nib.link(1, 2) is None
        assert nib.host_by_mac("m1") is None
        assert 1 not in nib.switches

    def test_summary(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.learn_host("m1", None, dpid=1, port=1, now=0.0, is_element=True)
        summary = nib.summary()
        assert summary["switches"] == 1
        assert summary["hosts"] == 1
        assert summary["elements"] == 1


class TestLocationDigest:
    MACS = tuple(f"m{i}" for i in range(10))
    IPS = (None, "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5")

    @staticmethod
    def _expected(nib, dpids=None):
        digest = hashlib.sha256()
        for mac, ip, dpid, port, is_element in nib.location_entries(dpids):
            digest.update(
                f"{mac} {ip} {dpid} {port} {int(is_element)}\n".encode()
            )
        return digest.hexdigest()

    def _step(self, nib, rng, now):
        op = rng.choice(("learn", "learn", "move", "ip", "element",
                         "refresh", "remove_host", "remove_switch",
                         "expire"))
        known = sorted(nib.hosts)
        record = nib.hosts[rng.choice(known)] if known else None
        if op == "learn" or record is None:
            nib.learn_host(rng.choice(self.MACS), rng.choice(self.IPS),
                           dpid=rng.randint(1, 4), port=rng.randint(1, 3),
                           now=now, is_element=rng.random() < 0.2)
        elif op == "move":
            nib.learn_host(record.mac, rng.choice(self.IPS),
                           dpid=rng.randint(1, 4), port=rng.randint(1, 3),
                           now=now)
        elif op == "ip":
            nib.learn_host(record.mac, rng.choice(self.IPS[1:]),
                           dpid=record.dpid, port=record.port, now=now)
        elif op == "element":
            nib.learn_host(record.mac, None, dpid=record.dpid,
                           port=record.port, now=now, is_element=True)
        elif op == "refresh":
            nib.learn_host(record.mac, record.ip, dpid=record.dpid,
                           port=record.port, now=now)
        elif op == "remove_host":
            nib.remove_host(record.mac)
        elif op == "remove_switch":
            nib.remove_switch(rng.randint(1, 4))
        else:
            nib.expire_hosts(now)

    def test_cached_digest_matches_recomputation(self):
        steps = 0
        for seed in range(30):
            rng = random.Random(seed)
            nib = NetworkInformationBase(host_timeout_s=10.0)
            now = 0.0
            for _ in range(60):
                now += rng.choice((0.0, 1.0, 4.0))
                self._step(nib, rng, now)
                assert nib.location_digest() == self._expected(nib), (
                    f"seed={seed} step={steps}"
                )
                # A dpid-restricted digest is computed fresh every time.
                dpids = rng.sample((1, 2, 3, 4), rng.randint(1, 3))
                assert nib.location_digest(dpids) == \
                    self._expected(nib, dpids)
                for ip in self.IPS[1:]:
                    holder = nib.host_by_ip(ip)
                    assert holder is None or holder.ip == ip
                steps += 1
        assert steps >= 1000

    def test_last_seen_refresh_keeps_cached_digest(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        before = nib.location_digest()
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        assert nib.location_digest() is before
        nib.learn_host("m1", "10.0.0.2", dpid=1, port=2, now=6.0)
        assert nib.location_digest() != before
