"""Execution servers of the datacenter.

A :class:`Server` hosts function instances (microVMs / containers / pods).
The pool tracks occupancy so the placement scheduler's search cost can grow
with the number of busy servers — the mechanism behind the super-linear
scheduling delay the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Server:
    """One execution server (an EC2 host in the AWS Lambda story)."""

    server_id: int
    cores: int
    memory_mb: int
    used_cores: int = 0
    used_memory_mb: int = 0
    instances: int = 0

    def can_host(self, cores: int, memory_mb: int) -> bool:
        return (
            self.used_cores + cores <= self.cores
            and self.used_memory_mb + memory_mb <= self.memory_mb
        )

    def allocate(self, cores: int, memory_mb: int) -> None:
        if not self.can_host(cores, memory_mb):
            raise ValueError(f"server {self.server_id} cannot host ({cores}c, {memory_mb}MB)")
        self.used_cores += cores
        self.used_memory_mb += memory_mb
        self.instances += 1

    def release(self, cores: int, memory_mb: int) -> None:
        if self.instances <= 0:
            raise ValueError(f"server {self.server_id} has no instances to release")
        self.used_cores -= cores
        self.used_memory_mb -= memory_mb
        self.instances -= 1

    @property
    def busy(self) -> bool:
        return self.instances > 0


class ServerPool:
    """The fleet of execution servers.

    Placement is round-robin first-fit: realistic enough for a burst of
    identical instances, while keeping the interesting cost (the *search*
    itself, charged by the scheduler) explicit rather than emergent from
    bin-packing detail.

    A :class:`Server` is created the first time the cursor reaches its
    index; until then the index is an empty server of the pool's shape.
    So building a pool costs nothing per server, and a burst pays only for
    the servers it touches.
    """

    def __init__(self, n_servers: int, cores_per_server: int, memory_mb_per_server: int) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.n_servers = n_servers
        self.cores_per_server = cores_per_server
        self.memory_mb_per_server = memory_mb_per_server
        self._touched: dict[int, Server] = {}
        self._cursor = 0

    def __len__(self) -> int:
        return self.n_servers

    @property
    def busy_servers(self) -> int:
        return sum(1 for s in self._touched.values() if s.busy)

    @property
    def total_instances(self) -> int:
        return sum(s.instances for s in self._touched.values())

    def find_placement(self, cores: int, memory_mb: int) -> Optional[Server]:
        """First-fit from a moving cursor; ``None`` if the fleet is full."""
        if cores > self.cores_per_server or memory_mb > self.memory_mb_per_server:
            # Fits no server, not even an empty one.
            return None
        n = self.n_servers
        touched = self._touched
        for offset in range(n):
            i = (self._cursor + offset) % n
            server = touched.get(i)
            if server is None:
                # An untouched server is empty, and the request fits one.
                server = touched[i] = Server(
                    i, self.cores_per_server, self.memory_mb_per_server
                )
            elif not server.can_host(cores, memory_mb):
                continue
            self._cursor = (i + 1) % n
            return server
        return None

    def place(self, cores: int, memory_mb: int) -> Server:
        server = self.find_placement(cores, memory_mb)
        if server is None:
            raise RuntimeError(
                f"fleet exhausted: {self.n_servers} servers, "
                f"{self.total_instances} instances placed"
            )
        server.allocate(cores, memory_mb)
        return server
