"""`repro.service` — the sharded, durable crowd-serving layer.

The paper's crowd repository is one shared service (gptune.lbl.gov)
that every tuner reads from and writes to.  This package serves it over
a transport-free request/response protocol, as a multi-node deployment
able to take concurrent traffic:

* :mod:`~repro.service.shard` — consistent-hash sharding of performance
  records by ``(problem_name, task)`` over N :class:`CrowdShard` nodes
  with K-way replication,
* :mod:`~repro.service.wal` — :class:`DurableLog`, the journal
  (compacted in place) under every shard (and the fabric's job queue);
  a killed shard recovers bit-identical state from disk,
* :mod:`~repro.service.router` — protocol-compatible front-end: smart
  routing, parallel cross-shard fan-out with exact deduplication,
  token-bucket backpressure, no read cache,
* :mod:`~repro.service.transport` — deterministic simulated RPC with
  fault injection,
* :mod:`~repro.service.client` — the retrying :class:`ServiceClient`
  (:class:`~repro.service.client.RetryPolicy`) and the one crowd client
  path: :class:`RemoteRepository`, the node's routes as a
  :class:`~repro.crowd.api.CrowdClient` calls them, and the request
  builders and record → observation rule the fabric tuner shares.

:func:`build_service` wires a whole deployment in one call::

    from repro.service import build_service

    svc = build_service(4, replication=2, data_dir="/tmp/crowd")
    username, key = svc.register_user("alice", "alice@hpc.org")
    svc.client.handle({"route": "upload", "api_key": key, ...})

A user's code reaches a deployment, or one in-process node, the same
way: ``CrowdClient(svc.client, meta)`` or
``CrowdClient(CrowdShard("node", registry=RegistryOptions()), meta)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..crowd.users import UserRegistry
from ..registry import ModelRegistry, RegistryOptions
from .client import RemoteRepository, ServiceClient
from .router import CrowdRouter, RouterOptions
from .shard import CrowdShard, ShardRing, shard_key
from .transport import SimTransport, TransportError
from .wal import DurableLog

__all__ = [
    "CrowdRouter",
    "CrowdService",
    "CrowdShard",
    "DurableLog",
    "ModelRegistry",
    "RegistryOptions",
    "RemoteRepository",
    "RouterOptions",
    "ServiceClient",
    "ShardRing",
    "SimTransport",
    "TransportError",
    "build_service",
    "shard_key",
]


def _restarting(request: Mapping[str, Any]) -> dict[str, Any]:
    """A restarting node's transport target: the node is not there."""
    raise TransportError("endpoint is restarting")


def _node(
    name: str,
    data_dir: str | Path | None,
    heal: Callable[[str], Any],
    *,
    transport: SimTransport | None = None,
    link: Mapping[str, Any] | None = None,
    **shard_options: Any,
) -> tuple[CrowdShard, SimTransport]:
    """One shard node (``shard_options`` are :class:`CrowdShard`'s) behind
    its transport.

    A new transport (``link`` holds its latency / fault settings) runs
    ``heal(name)`` — the router's anti-entropy round over the node's
    buckets — the moment it comes back up.  A restart passes the
    ``transport`` the router already holds, which is pointed at the new
    node and keeps its hooks.
    """
    shard = CrowdShard(name, data_dir, **shard_options)
    if transport is None:
        transport = SimTransport(shard.handle, name, **(link or {}))
        transport.on_up(heal)
    else:
        transport.target = shard.handle
    return shard, transport


@dataclass
class CrowdService:
    """One wired deployment: shards, transports, router, client (which,
    like the nodes' heal hooks, goes to whichever router is current)."""

    shards: dict[str, CrowdShard]
    transports: dict[str, SimTransport]
    users: UserRegistry
    #: registry policy shards were built with (None = no registry);
    #: restarts and joins attach the same configuration
    registry: RegistryOptions | None
    #: the router's policy, kept by :meth:`restart_router`
    options: RouterOptions
    router: CrowdRouter = field(init=False)
    client: ServiceClient = field(init=False)

    def __post_init__(self) -> None:
        self._start_router()
        self.client = ServiceClient(self)
        self._closed = False

    def _start_router(self) -> None:
        """A router over the transports, its write clock and client-id
        count at the greatest of the nodes': start-up reads no document."""
        shards = self.shards.values()
        self.router = CrowdRouter(
            self.transports,
            self.options,
            write_clock=max(shard.repository.clock for shard in shards),
            client_ids=max(shard.client_ids for shard in shards),
        )

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """The current router's answer to ``request``."""
        return self.router.handle(request)

    def _heal(self, name: str) -> None:
        """A node's ``on_up`` hook: a round over the node's buckets."""
        self.router.anti_entropy_round(name)

    def restart_router(self) -> None:
        """Restart the front end: close the old router (its anti-entropy
        thread, its sender pool) and start one over the same transports,
        its clock and client-id count the shards'.  A retry names its uid
        by its token."""
        self.router.close()
        self._start_router()

    def register_user(self, username: str, email: str) -> tuple[str, str]:
        """Register through the service; returns ``(username, api_key)``."""
        response = self.client.handle(
            {"route": "register", "username": username, "email": email}
        )
        if not response.get("ok"):
            raise RuntimeError(f"registration failed: {response.get('message')}")
        return response["username"], response["api_key"]

    def kill_shard(self, name: str) -> None:
        """Simulate a shard crash: its transport hard-fails from now on."""
        self.transports[name].down = True

    def revive_shard(self, name: str) -> None:
        """Bring a killed shard back, holding every write it missed.

        (The transport's ``on_up`` hook runs the router's anti-entropy
        round over the shard's buckets before this returns — wired by
        :func:`build_service` / :meth:`add_shard`.)
        """
        self.transports[name].down = False

    def restart_shard(self, name: str) -> None:
        """Crash-restart a shard from its data directory.

        The in-memory node is closed and freed first, then rebuilt by
        journal replay — the simulation of a real process restart,
        which never holds two copies of a node.  The node is down while
        it recovers: a request for it fails over (writes go to the other
        replicas, like during any outage) instead of reaching the closed
        node.  Its transport then goes back to the state it was in; if
        that was up, the revive round heals at once whatever the shard
        missed meanwhile or lost to an older copy of its directory — a restart
        that missed nothing costs the digests only.  If recovery raises,
        the node stays down and out of :attr:`shards`.
        """
        shard = self.shards[name]
        if shard.data_dir is None:
            raise ValueError(f"shard {name!r} is memory-only; nothing to recover")
        data_dir, snapshot_every, fsync_every = (
            shard.data_dir,
            shard.snapshot_every,
            shard.fsync_every,
        )
        transport = self.transports[name]
        was_down = transport.down
        transport.down = True
        transport.retarget(_restarting)
        shard.close()
        del self.shards[name], shard  # nothing refers to the old node now
        self.shards[name], _ = _node(
            name,
            data_dir,
            self._heal,
            users=self.users,
            registry=self.registry,
            snapshot_every=snapshot_every,
            fsync_every=fsync_every,
            transport=transport,
        )
        transport.down = was_down

    def add_shard(
        self,
        name: str | None = None,
        *,
        data_dir: str | Path | None = None,
        latency_s: float = 0.0,
        fault_rate: float = 0.0,
        seed: int = 0,
        snapshot_every: int = 256,
        fsync_every: int = 1,
        rebalance: bool = True,
    ) -> str:
        """Join a new shard node and stream its buckets to it."""
        if name is None:
            i = len(self.shards)
            while f"shard-{i}" in self.shards:
                i += 1
            name = f"shard-{i}"
        if name in self.shards:
            raise ValueError(f"shard {name!r} already exists")
        self.shards[name], self.transports[name] = _node(
            name,
            data_dir,
            self._heal,
            users=self.users,
            registry=self.registry,
            snapshot_every=snapshot_every,
            fsync_every=fsync_every,
            link={"latency_s": latency_s, "fault_rate": fault_rate, "seed": seed},
        )
        self.router.add_shard(name, self.transports[name], rebalance=rebalance)
        return name

    def remove_shard(self, name: str, *, graceful: bool = True) -> None:
        """Leave: graceful removal streams the shard's data out first."""
        self.router.remove_shard(name, graceful=graceful)
        self.transports.pop(name, None)
        shard = self.shards.pop(name)
        shard.close()

    def snapshot_all(self) -> None:
        for shard in self.shards.values():
            shard.snapshot()

    def total_records(self) -> int:
        """Stored record count summed over shards (replicas included)."""
        return sum(s.count() for s in self.shards.values())

    def close(self) -> None:
        """Shut the whole deployment down (idempotent).

        Stops the router's anti-entropy thread and sender pool and
        closes every WAL.  Safe to call repeatedly and after partial
        teardown — fabric runs and tests can always
        ``with build_service(...) as svc:`` without leaking daemon
        threads across test boundaries.
        """
        if self._closed:
            return
        self._closed = True
        self.router.close()
        for shard in self.shards.values():
            shard.close()

    def __enter__(self) -> "CrowdService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_service(
    n_shards: int = 4,
    *,
    replication: int = 2,
    write_quorum: int = 1,
    read_quorum: int = 1,
    anti_entropy_interval_s: float | None = None,
    data_dir: str | Path | None = None,
    latency_s: float = 0.0,
    fault_rate: float = 0.0,
    seed: int = 0,
    snapshot_every: int = 256,
    fsync_every: int = 1,
    options: RouterOptions | None = None,
    users: UserRegistry | None = None,
    registry: RegistryOptions | None = None,
) -> CrowdService:
    """Build an N-shard crowd service behind one router.

    With ``data_dir``, shard ``i`` persists under ``<data_dir>/shard-i``
    (WAL + snapshots); without it the deployment is memory-only.  All
    shards share one user registry — accounts are not sharded.  Over a
    recovered directory the router resumes its write clock and its
    client-id count from the shards'; it reads no record or problem
    document to start.

    ``write_quorum``/``read_quorum`` set the W/R of the replicated
    write/read paths; the ``(1, 1)`` default reproduces the original
    fire-and-forget behavior.  ``anti_entropy_interval_s`` starts the
    router's background healing thread (rounds can always be driven
    manually via ``svc.router.anti_entropy_round()``).  These, with
    ``replication``, are shorthand for the ``options`` fields of the
    same names: give ``options`` or any of the four, not both
    (``ValueError``).  The router's shard connections retry with
    :class:`~repro.service.client.RetryPolicy`'s defaults.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    users = users if users is not None else UserRegistry()
    shorthand = {
        "replication": replication,
        "write_quorum": write_quorum,
        "read_quorum": read_quorum,
        "anti_entropy_interval_s": anti_entropy_interval_s,
    }
    if options is None:
        options = RouterOptions(**shorthand)
    else:
        defaults = inspect.signature(build_service).parameters
        for name, given in shorthand.items():
            if given != defaults[name].default:
                raise ValueError(
                    f"build_service got both options= and {name}={given!r}; "
                    f"set RouterOptions.{name} instead"
                )

    def heal(name: str) -> None:
        svc._heal(name)  # the service is built from the nodes, below

    shards: dict[str, CrowdShard] = {}
    transports: dict[str, SimTransport] = {}
    for i in range(n_shards):
        name = f"shard-{i}"
        shards[name], transports[name] = _node(
            name,
            Path(data_dir) / name if data_dir is not None else None,
            heal,
            users=users,
            registry=registry,
            snapshot_every=snapshot_every,
            fsync_every=fsync_every,
            link={"latency_s": latency_s, "fault_rate": fault_rate, "seed": seed + i},
        )
    svc = CrowdService(shards, transports, users, registry, options)
    return svc
