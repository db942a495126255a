"""Property-based tests for the flow table and link layer."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import packet as pkt
from repro.net.node import Node, connect
from repro.net.simulator import Simulator
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match


def frame(tp_dst=80):
    return pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, tp_dst)


entry_specs = st.lists(
    st.tuples(
        st.integers(0, 1000),  # priority
        st.one_of(st.none(), st.integers(0, 3)),  # tp_dst selector bucket
        st.integers(1, 8),  # output port
    ),
    min_size=1,
    max_size=15,
)


class TestFlowTableProperties:
    @given(entry_specs)
    @settings(max_examples=60)
    def test_lookup_returns_max_priority_matching_entry(self, specs):
        table = FlowTable()
        for priority, bucket, port in specs:
            match = Match() if bucket is None else Match(tp_dst=80 + bucket)
            table.add(
                FlowEntry(match=match, priority=priority,
                          actions=(Output(port),)),
                now=0.0,
            )
        probe = frame(tp_dst=80)
        hit = table.lookup(probe, 1, now=1.0)
        matching = [
            (priority, port)
            for priority, bucket, port in specs
            if bucket is None or bucket == 0
        ]
        if not matching:
            assert hit is None
        else:
            # Later adds replace identical (match, priority) rows, so
            # the hit's priority is the max; its port must belong to
            # some entry at that priority.
            best = max(p for p, __ in matching)
            assert hit is not None
            assert hit.priority == best

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_delete_all_empties_table(self, buckets):
        table = FlowTable()
        for index, bucket in enumerate(buckets):
            table.add(
                FlowEntry(match=Match(tp_dst=80 + bucket), priority=index,
                          actions=(Output(1),)),
                now=0.0,
            )
        removed = table.delete(Match())
        assert len(table) == 0
        # Identical (match, priority) pairs were replaced on add, so
        # removed counts unique pairs.
        assert len(removed) == len({(80 + b, i)
                                    for i, b in enumerate(buckets)})

    @given(
        st.floats(0.1, 10.0),  # idle timeout
        st.lists(st.floats(0.0, 30.0), min_size=1, max_size=10),  # hits
    )
    @settings(max_examples=40)
    def test_entry_alive_iff_recently_used(self, idle, hit_times):
        table = FlowTable()
        table.add(FlowEntry(match=Match(), idle_timeout=idle,
                            actions=(Output(1),)), now=0.0)
        last_use = 0.0
        alive = True
        for t in sorted(hit_times):
            expected_alive = alive and (t - last_use) < idle
            hit = table.lookup(frame(), 1, now=t)
            assert (hit is not None) == expected_alive
            if expected_alive:
                last_use = t
            else:
                alive = False  # expired entries never come back


class TestIndexedLinearEquivalence:
    """The indexed ``lookup`` must be observably identical to the
    pre-index reference scan (``_lookup_linear``) on every frame, for
    tables mixing priorities, wildcards and timeouts.

    Two tables receive the exact same mutation stream; one is probed
    through the index, the other through the linear oracle.  Seeded
    ``random`` (not hypothesis) so the run is deterministic and the
    case count is guaranteed: >= 1000 table/frame combinations.
    """

    MACS = ("m1", "m2", "m3", "m4")
    IPS = ("1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4")
    PORTS = (80, 443, 1000)
    VLANS = (None, None, None, 7)  # mostly untagged, like the fabric

    def _random_frame(self, rng):
        kind = rng.choice(("tcp", "tcp", "udp", "icmp", "arp"))
        src, dst = rng.choice(self.MACS), rng.choice(self.MACS)
        if kind == "arp":
            return pkt.make_arp_request(src, rng.choice(self.IPS),
                                        rng.choice(self.IPS))
        nw_src, nw_dst = rng.choice(self.IPS), rng.choice(self.IPS)
        if kind == "icmp":
            return pkt.make_icmp_echo(src, dst, nw_src, nw_dst)
        maker = pkt.make_tcp if kind == "tcp" else pkt.make_udp
        return maker(src, dst, nw_src, nw_dst,
                     rng.choice(self.PORTS), rng.choice(self.PORTS),
                     vlan=rng.choice(self.VLANS))

    def _random_match(self, rng):
        roll = rng.random()
        if roll < 0.45:
            # Exact 9-tuple + in_port, like every steering rule.
            return Match.from_frame(self._random_frame(rng),
                                    in_port=rng.randint(1, 3))
        if roll < 0.55:
            return Match()  # catch-all
        if roll < 0.7:
            # Source block: in_port + dl_src only.
            return Match(in_port=rng.randint(1, 3),
                         dl_src=rng.choice(self.MACS))
        # Arbitrary partial wildcard over a concrete frame's fields.
        exact = Match.from_frame(self._random_frame(rng),
                                 in_port=rng.randint(1, 3))
        kept = {}
        for f in dataclasses.fields(exact):
            value = getattr(exact, f.name)
            if value is not None and rng.random() < 0.6:
                kept[f.name] = value
        return Match(**kept)

    def _random_entry(self, rng):
        return FlowEntry(
            match=self._random_match(rng),
            actions=() if rng.random() < 0.2 else (Output(rng.randint(1, 8)),),
            priority=rng.choice((50, 100, 100, 100, 200)),
            idle_timeout=rng.choice((0.0, 0.0, 0.5, 2.0)),
            hard_timeout=rng.choice((0.0, 0.0, 1.0, 3.0)),
        )

    @staticmethod
    def _assert_scan_order(table, added_at):
        """Both views list entries by descending priority, then by when
        their (match, priority) was last added."""
        def rank(entry):
            return (-entry.priority, added_at[(entry.match, entry.priority)])

        for view in (table.entries(), table.wildcard_entries()):
            assert list(view) == sorted(view, key=rank)
        assert list(table.wildcard_entries()) == [
            e for e in table.entries() if e.match.exact_index_key() is None
        ]

    @staticmethod
    def _signature(entry):
        return None if entry is None else (
            entry.match, entry.priority, entry.actions,
            entry.packets, entry.bytes, entry.last_used_at,
        )

    def test_indexed_lookup_equivalent_to_linear_scan(self):
        cases = 0
        for seed in range(40):
            rng = random.Random(seed)
            indexed, reference = FlowTable(), FlowTable()
            added_at, adds = {}, 0  # (match, priority) -> last add
            now = 0.0
            for _ in range(rng.randint(2, 5)):
                # A batch of mutations, mirrored into both tables
                # (entries are per-table clones: counters diverge
                # otherwise).
                for _ in range(rng.randint(1, 12)):
                    entry = self._random_entry(rng)
                    resident = reference.entries()
                    if resident and rng.random() < 0.25:
                        # Re-add an existing (match, priority): replaces
                        # the old row and moves it behind its peers.
                        old = rng.choice(resident)
                        entry.match, entry.priority = old.match, old.priority
                    adds += 1
                    added_at[(entry.match, entry.priority)] = adds
                    indexed.add(dataclasses.replace(entry), now=now)
                    reference.add(dataclasses.replace(entry), now=now)
                if rng.random() < 0.3:
                    victim = self._random_match(rng)
                    indexed.delete(victim)
                    reference.delete(victim)
                for _ in range(rng.randint(0, 3)):
                    # Strict deletes: mostly resident rows, otherwise a
                    # random (match, priority), usually absent.
                    resident = reference.entries()
                    if resident and rng.random() < 0.8:
                        old = rng.choice(resident)
                        match, priority = old.match, old.priority
                    else:
                        match = self._random_match(rng)
                        priority = rng.choice((50, 100, 200))
                    # The indexed table may already have evicted an
                    # expired row the reference still holds.
                    removed = [
                        [e for e in table.delete(match, strict=True,
                                                 priority=priority)
                         if not e.expired(now)]
                        for table in (indexed, reference)
                    ]
                    assert len(removed[0]) == len(removed[1])
                self._assert_scan_order(indexed, added_at)
                self._assert_scan_order(reference, added_at)
                if rng.random() < 0.3:
                    # The indexed table evicts expired entries the
                    # moment a lookup observes them; the reference only
                    # drops them on sweep.  MODIFY counts resident
                    # entries, so sweep both before comparing.
                    indexed.expire(now)
                    reference.expire(now)
                    target = self._random_match(rng)
                    actions = (Output(rng.randint(1, 8)),)
                    assert indexed.modify(target, actions, now=now) == \
                        reference.modify(target, actions, now=now)
                # A burst of probes at advancing times (some beyond the
                # timeouts, so expiry interleaves with matching).
                for _ in range(rng.randint(5, 15)):
                    now += rng.choice((0.0, 0.1, 0.4, 1.5))
                    probe = self._random_frame(rng)
                    in_port = rng.randint(1, 3)
                    hit = indexed.lookup(probe, in_port, now)
                    oracle = reference._lookup_linear(probe, in_port, now)
                    assert self._signature(hit) == self._signature(oracle), (
                        f"seed={seed} now={now} probe={probe}"
                    )
                    cases += 1
                # The tables' live contents stay identical (the indexed
                # one also evicted every expired entry it observed).
                live = {(e.match, e.priority) for e in indexed}
                assert live == {
                    (e.match, e.priority)
                    for e in reference if not e.expired(now)
                }
                assert not any(e.expired(now) for e in indexed)
        assert cases >= 1000, f"only {cases} randomized lookups exercised"

    def test_every_steering_style_rule_is_indexable(self):
        """Exact 9-tuple+port matches (what the steering app installs)
        must all take the hash fast path, whatever the protocol."""
        rng = random.Random(1234)
        table = FlowTable()
        for _ in range(200):
            match = Match.from_frame(self._random_frame(rng),
                                     in_port=rng.randint(1, 3))
            table.add(FlowEntry(match=match, actions=(Output(1),)), now=0.0)
        assert table.wildcard_entries() == ()


class TestLinkProperties:
    class Sink(Node):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.arrivals = []

        def receive(self, f, in_port):
            self.arrivals.append(self.sim.now)

    @given(
        st.lists(st.integers(64, 9000), min_size=1, max_size=30),
        st.floats(1e5, 1e9),
        st.floats(0.0, 0.01),
    )
    @settings(max_examples=40)
    def test_fifo_order_and_capacity_bound(self, sizes, bandwidth, delay):
        sim = Simulator()
        a = self.Sink(sim, "a")
        b = self.Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=bandwidth, delay_s=delay,
                queue_packets=1000)
        for size in sizes:
            a.send(pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2,
                                size=size), 1)
        sim.run()
        assert len(b.arrivals) == len(sizes)
        # FIFO: arrivals are non-decreasing in time.
        assert b.arrivals == sorted(b.arrivals)
        # Last arrival >= total serialization + propagation.
        total_tx = sum(size * 8 / bandwidth for size in sizes)
        assert b.arrivals[-1] >= total_tx + delay - 1e-9


class TestTcpProperties:
    """Property tests for the reliable transport."""


    @given(
        st.lists(st.binary(min_size=1, max_size=5000), min_size=1,
                 max_size=12),
        st.floats(1e6, 1e9),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_writes_reassemble_exactly(self, chunks, bandwidth):
        from repro.net.host import Host
        from repro.net.tcp import TcpConnection, TcpListener

        sim = Simulator()
        client = Host(sim, "c", "00:00:00:00:00:01", "10.0.0.1")
        server = Host(sim, "s", "00:00:00:00:00:02", "10.0.0.2")
        connect(sim, client, server, bandwidth_bps=bandwidth, delay_s=1e-4,
                queue_packets=10_000)
        received = []
        TcpListener(server, 80,
                    on_receive=lambda conn, data: received.append(data))

        def on_established(conn):
            for chunk in chunks:
                conn.send(chunk)
            conn.close()

        TcpConnection.connect(client, server.ip, 80,
                              on_established=on_established)
        sim.run(until=120.0)
        assert b"".join(received) == b"".join(chunks)

    @given(st.integers(1, 40), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_lossy_queue_still_exact(self, segments, queue_packets):
        from repro.net.host import Host
        from repro.net.tcp import MSS, TcpConnection, TcpListener

        sim = Simulator()
        client = Host(sim, "c", "00:00:00:00:00:01", "10.0.0.1")
        server = Host(sim, "s", "00:00:00:00:00:02", "10.0.0.2")
        connect(sim, client, server, bandwidth_bps=5e6, delay_s=1e-3,
                queue_packets=queue_packets)
        received = []
        TcpListener(server, 80,
                    on_receive=lambda conn, data: received.append(data))
        blob = bytes(range(256)) * (segments * MSS // 256)
        TcpConnection.connect(client, server.ip, 80,
                              on_established=lambda c: c.send(blob))
        sim.run(until=300.0)
        assert b"".join(received) == blob
