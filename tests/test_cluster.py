"""Tests for the datacenter substrate: servers, network, image registry."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import server as server_module
from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage, ImageRegistry
from repro.cluster.server import Server, ServerPool
from repro.sim.engine import Simulator


# --------------------------------------------------------------------- #
# Server / ServerPool
# --------------------------------------------------------------------- #

def test_server_allocation_and_release():
    server = Server(0, cores=8, memory_mb=1024)
    assert server.can_host(4, 512)
    server.allocate(4, 512)
    assert server.instances == 1 and server.busy
    server.release(4, 512)
    assert server.instances == 0 and not server.busy
    assert server.used_cores == 0 and server.used_memory_mb == 0


def test_server_rejects_overallocation():
    server = Server(0, cores=2, memory_mb=100)
    with pytest.raises(ValueError):
        server.allocate(3, 50)


def test_server_release_without_instance_fails():
    with pytest.raises(ValueError):
        Server(0, cores=2, memory_mb=100).release(1, 10)


def test_pool_round_robin_spreads_load():
    pool = ServerPool(4, cores_per_server=2, memory_mb_per_server=100)
    placed = {pool.place(1, 10).server_id for _ in range(4)}
    assert placed == {0, 1, 2, 3}


def test_pool_busy_and_instance_counters():
    pool = ServerPool(2, cores_per_server=4, memory_mb_per_server=100)
    pool.place(1, 10)
    pool.place(1, 10)
    assert pool.total_instances == 2
    assert 1 <= pool.busy_servers <= 2


def test_pool_exhaustion_raises():
    pool = ServerPool(1, cores_per_server=1, memory_mb_per_server=10)
    pool.place(1, 10)
    with pytest.raises(RuntimeError, match="fleet exhausted"):
        pool.place(1, 10)


def test_pool_first_fit_skips_full_servers():
    pool = ServerPool(2, cores_per_server=1, memory_mb_per_server=10)
    first = pool.place(1, 10)
    second = pool.place(1, 10)
    assert first.server_id != second.server_id


def test_pool_requires_servers():
    with pytest.raises(ValueError):
        ServerPool(0, 1, 1)


class _EagerPool:
    """Reference: every server built up front, first-fit over the list."""

    def __init__(self, n_servers, cores_per_server, memory_mb_per_server):
        self.servers = [
            Server(i, cores_per_server, memory_mb_per_server) for i in range(n_servers)
        ]
        self._cursor = 0

    @property
    def busy_servers(self):
        return sum(1 for s in self.servers if s.busy)

    @property
    def total_instances(self):
        return sum(s.instances for s in self.servers)

    def place(self, cores, memory_mb):
        n = len(self.servers)
        for offset in range(n):
            server = self.servers[(self._cursor + offset) % n]
            if server.can_host(cores, memory_mb):
                self._cursor = (self._cursor + offset + 1) % n
                server.allocate(cores, memory_mb)
                return server
        raise RuntimeError(
            f"fleet exhausted: {len(self.servers)} servers, "
            f"{self.total_instances} instances placed"
        )


def _outcome(pool, cores, memory_mb):
    """The server ``place`` chose, or its "fleet exhausted" message."""
    try:
        return pool.place(cores, memory_mb)
    except RuntimeError as exc:
        return str(exc)


_OPS = st.lists(
    st.one_of(
        # Requests up to 10 cores / 80 MB: some fit no server at all.
        st.tuples(st.just("place"), st.integers(1, 10), st.integers(1, 80)),
        # Release the k-th earlier placement (mod their number), if live.
        st.tuples(st.just("release"), st.integers(0, 10**6), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    n_servers=st.integers(1, 6),
    cores=st.integers(1, 8),
    memory_mb=st.integers(1, 64),
    ops=_OPS,
)
def test_lazy_pool_places_exactly_like_an_eager_pool(n_servers, cores, memory_mb, ops):
    lazy = ServerPool(n_servers, cores, memory_mb)
    eager = _EagerPool(n_servers, cores, memory_mb)
    placed = []  # [lazy server, eager server, cores, memory_mb, live]
    for op, a, b in ops:
        if op == "place":
            got, want = _outcome(lazy, a, b), _outcome(eager, a, b)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.server_id == want.server_id
                placed.append([got, want, a, b, True])
        elif placed:
            entry = placed[a % len(placed)]
            if entry[4]:
                entry[0].release(entry[2], entry[3])
                entry[1].release(entry[2], entry[3])
                entry[4] = False
        assert len(lazy) == n_servers
        assert lazy.total_instances == eager.total_instances
        assert lazy.busy_servers == eager.busy_servers


def test_pool_construction_does_not_depend_on_fleet_size(monkeypatch):
    # Smallest fleet first: a pool that built every server would fail on
    # it long before trying 10**12.
    for n in (10**4, 10**12):
        tracemalloc.start()
        try:
            pool = ServerPool(n, 96, 786432)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert len(pool) == n

    built = []

    def counting_server(server_id, *shape):
        built.append(server_id)
        return Server(server_id, *shape)

    monkeypatch.setattr(server_module, "Server", counting_server)
    assert [pool.place(6, 10240).server_id for _ in range(5)] == [0, 1, 2, 3, 4]
    assert built == [0, 1, 2, 3, 4]
    assert pool.find_placement(97, 10240) is None
    assert pool.find_placement(6, 786433) is None
    assert built == [0, 1, 2, 3, 4]
    assert pool.total_instances == 5 and pool.busy_servers == 5


# --------------------------------------------------------------------- #
# NetworkFabric
# --------------------------------------------------------------------- #

def test_network_transfer_time_from_bandwidth():
    sim = Simulator()
    net = NetworkFabric(sim, uplink_gbps=1.0)  # 125 MB/s
    done = []
    net.ship(125.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0)]


def test_network_sharing_between_transfers():
    sim = Simulator()
    net = NetworkFabric(sim, uplink_gbps=1.0)
    done = []
    net.ship(125.0, lambda: done.append(sim.now))
    net.ship(125.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0), pytest.approx(2.0)]


def test_network_accounts_bytes():
    sim = Simulator()
    net = NetworkFabric(sim, uplink_gbps=1.0)
    net.ship(10.0, lambda: None)
    net.ship(20.0, lambda: None)
    assert net.bytes_shipped_mb == pytest.approx(30.0)


def test_network_rejects_bad_inputs():
    with pytest.raises(ValueError):
        NetworkFabric(Simulator(), uplink_gbps=0.0)
    net = NetworkFabric(Simulator(), uplink_gbps=1.0)
    with pytest.raises(ValueError):
        net.ship(-1.0, lambda: None)


def test_network_in_flight_counter():
    sim = Simulator()
    net = NetworkFabric(sim, uplink_gbps=1.0)
    net.ship(125.0, lambda: None)
    assert net.in_flight == 1
    sim.run()
    assert net.in_flight == 0


# --------------------------------------------------------------------- #
# ImageRegistry
# --------------------------------------------------------------------- #

def test_image_size_accounting():
    image = FunctionImage("app", code_mb=10, runtime_mb=50, dependencies_mb=40)
    assert image.total_mb == 100
    assert image.install_mb == 90  # code isn't "installed"


def test_image_rejects_negative_sizes():
    with pytest.raises(ValueError):
        FunctionImage("bad", code_mb=-1, runtime_mb=0, dependencies_mb=0)


def test_registry_roundtrip():
    registry = ImageRegistry()
    image = FunctionImage("app", 1, 2, 3)
    registry.register(image)
    assert "app" in registry
    assert registry.get("app") is image
    assert len(registry) == 1


def test_registry_upsert_replaces():
    registry = ImageRegistry()
    registry.register(FunctionImage("app", 1, 2, 3))
    registry.register(FunctionImage("app", 9, 9, 9))
    assert registry.get("app").code_mb == 9
    assert len(registry) == 1


def test_registry_missing_key_raises():
    with pytest.raises(KeyError, match="nope"):
        ImageRegistry().get("nope")
