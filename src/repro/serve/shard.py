"""Shard topology for horizontal scale-out: who owns which worker, which
slice of the corpus each shard serves, and how a shard joins or leaves.

One asyncio daemon tops out around ~10³ req/s; serving more means N
independent :class:`~repro.crowd.service.AssignmentService` shards behind a
thin router (:mod:`repro.serve.router`).  This module owns the parts of that
topology that must be *deterministic*, because the router journals every
routing decision and replays it:

* :class:`HashRing` — consistent hashing on worker id over SHA-256 virtual
  nodes.  Adding or removing one shard moves only ~K/N keys (the property
  the shard test-suite checks with hypothesis), and the ring is versioned so
  a routing journal can pin every decision to the ring state that made it.

* :func:`shard_slice` — the disjoint task-pool partition: shard ``k`` of
  ``N`` serves exactly the corpus positions ``i`` with ``i % N == k``.
  Slices are disjoint and cover the corpus by construction, so C1/C2
  disjointness holds *globally*: no two shards can ever shortlist, display, or
  pad with the same task.  Tasks posted after startup (``POST /tasks``) are
  routed by consistent hash on task id — a different partition of the id
  space, but equally disjoint.

* :class:`ShardProcess` / :class:`ShardCluster` — a real multi-process
  shard fleet (loadgen, benchmarks, CI) and an in-process one (tests, the
  ``repro serve --router`` convenience topology).

* :class:`ShardCoordinator` — per-shard keep-alive clients plus the
  drain/rebalance protocol: drain (stop leasing, wait out in-flight
  solves), handoff (export worker sessions with their estimator and
  reputation state), adopt (import on the new owners, without consuming
  their RNG).  The coordinator returns what moved; the router journals it.

See docs/SERVING.md ("Sharded serving") for the topology diagram.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from ..core.task import TaskPool
from ..errors import ReproError
from .protocol import HttpClient


class ShardError(ReproError):
    """A shard topology operation failed."""


def stable_hash(key: str) -> int:
    """64-bit stable hash of a string (first 8 bytes of SHA-256).

    Python's builtin ``hash`` is salted per process; routing must agree
    across the router, the shards, and a replay run days later.
    """
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


def shard_key(index: int) -> str:
    """The ring key of shard ``index``."""
    return f"shard-{index}"


def shard_index(key: str) -> int:
    """Inverse of :func:`shard_key`."""
    return int(key.removeprefix("shard-"))


class HashRing:
    """Consistent-hash ring over virtual nodes, versioned for replay.

    Each shard key is hashed to ``replicas`` points on a 64-bit ring; a
    lookup walks clockwise from the key's own hash to the next point.  The
    classic guarantee follows: removing one of N shards reassigns only the
    keys that shard owned (~K/N of them), and every other key keeps its
    owner — the property that makes drain/rebalance touch only the
    departing shard's workers.

    ``version`` increments on every membership change.  The router stamps
    it into each journaled routing decision, so replay can verify a
    decision against the exact ring that made it.
    """

    def __init__(self, keys: Iterable[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ShardError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._keys: set[str] = set()
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._version = 0
        for key in keys:
            self.add(key)

    @property
    def version(self) -> int:
        return self._version

    @property
    def replicas(self) -> int:
        return self._replicas

    def keys(self) -> list[str]:
        """Current members, sorted for determinism."""
        return sorted(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def add(self, key: str) -> int:
        """Add a member; returns the new ring version."""
        if key in self._keys:
            raise ShardError(f"shard {key!r} is already on the ring")
        self._keys.add(key)
        for r in range(self._replicas):
            point = stable_hash(f"{key}#{r}")
            # SHA-256 collisions between distinct vnode labels are not a
            # realistic concern; first-writer-wins keeps behavior defined.
            if point not in self._owners:
                self._owners[point] = key
                bisect.insort(self._points, point)
        self._version += 1
        return self._version

    def remove(self, key: str) -> int:
        """Remove a member; returns the new ring version."""
        if key not in self._keys:
            raise ShardError(f"shard {key!r} is not on the ring")
        self._keys.discard(key)
        for r in range(self._replicas):
            point = stable_hash(f"{key}#{r}")
            if self._owners.get(point) == key:
                del self._owners[point]
                i = bisect.bisect_left(self._points, point)
                del self._points[i]
        self._version += 1
        return self._version

    def owner_of(self, key: str) -> str:
        """The member owning ``key`` at the current ring version."""
        if not self._points:
            raise ShardError("the hash ring is empty")
        h = stable_hash(key)
        i = bisect.bisect_right(self._points, h)
        if i == len(self._points):
            i = 0
        return self._owners[self._points[i]]

    def to_dict(self) -> dict:
        """Journal-header form: enough to rebuild an identical ring."""
        return {
            "keys": self.keys(),
            "replicas": self._replicas,
            "version": self._version,
        }


def shard_slice(pool: TaskPool, index: int, count: int) -> TaskPool:
    """Shard ``index``'s disjoint slice of the startup corpus.

    Position-based round robin (``i % count == index`` over corpus
    insertion order): slices partition the corpus exactly, every shard gets
    within one task of the same load, and — unlike an id-hash split — the
    slice is independent of id formatting, so the same corpus spec always
    produces the same slice for the journal's ``pool_sha`` to pin.
    """
    if count < 1:
        raise ShardError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ShardError(
            f"shard index must be in [0, {count}), got {index}"
        )
    tasks = [task for i, task in enumerate(pool) if i % count == index]
    return TaskPool(tasks, pool.vocabulary)


@dataclass(frozen=True)
class ShardSpec:
    """Address and identity of one shard daemon."""

    index: int
    host: str
    port: int

    @property
    def key(self) -> str:
        return shard_key(self.index)


# -- real shard processes ----------------------------------------------------


def _shard_process_main(corpus_spec: dict, config, conn) -> None:
    """Entry point of one shard subprocess.

    Builds the shard's corpus slice from the spec, serves on an ephemeral
    port reported back through ``conn``, and stops cleanly on SIGTERM /
    SIGINT so the flight journal gets its ``end`` fingerprint.
    """
    import signal

    from .app import AssignmentDaemon
    from .replay import pool_from_corpus_spec

    pool = pool_from_corpus_spec(corpus_spec)

    async def main() -> None:
        daemon = AssignmentDaemon(pool, config)
        await daemon.start()
        conn.send(daemon.port)
        conn.close()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        await stop.wait()
        await daemon.stop()

    asyncio.run(main())


class ShardProcess:
    """One shard daemon in its own OS process.

    Spawn shard processes *before* entering asyncio in the parent — the
    fork must not duplicate a live event loop.
    """

    def __init__(
        self,
        index: int,
        count: int,
        corpus_spec: dict,
        config,
        journal_path: "str | None" = None,
    ):
        base_spec = dict(corpus_spec)
        base_spec["shard"] = {"index": index, "count": count}
        # The parent's journal path is NOT inherited: N shards appending to
        # one file would interleave; callers pass an explicit per-shard path.
        shard_config = replace(
            config,
            port=0,
            shard_id=index,
            corpus_spec=base_spec,
            journal_path=journal_path,
        )
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.index = index
        self._process = ctx.Process(
            target=_shard_process_main,
            args=(base_spec, shard_config, child_conn),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(60.0):
            self._process.terminate()
            raise ShardError(f"shard {index} did not report a port in 60s")
        self.port: int = parent_conn.recv()
        parent_conn.close()
        self.host = shard_config.host

    @property
    def spec(self) -> ShardSpec:
        return ShardSpec(index=self.index, host=self.host, port=self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM the shard and wait for its clean shutdown."""
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)


def spawn_shard_fleet(
    count: int,
    corpus_spec: dict,
    config,
    journal_dir: "str | None" = None,
) -> list[ShardProcess]:
    """Start ``count`` shard processes over disjoint corpus slices.

    With ``journal_dir``, shard ``i`` records its flight journal to
    ``{journal_dir}/shard-{i}.jsonl`` — the files ``repro replay`` verifies
    per shard after a sharded run.
    """
    fleet: list[ShardProcess] = []
    try:
        for index in range(count):
            journal = None
            if journal_dir is not None:
                journal = os.path.join(journal_dir, f"shard-{index}.jsonl")
            fleet.append(
                ShardProcess(index, count, corpus_spec, config, journal)
            )
    except Exception:
        for shard in fleet:
            shard.stop()
        raise
    return fleet


class ShardCluster:
    """N in-process shard daemons sharing one event loop (tests, CLI).

    Functionally identical to a :class:`ShardProcess` fleet — each shard
    is a full :class:`~repro.serve.app.AssignmentDaemon` on its own
    ephemeral port with its own corpus slice, journal, and snapshot
    namespace — minus the process isolation, which the differential suite
    proves doesn't matter.
    """

    def __init__(self, pool: TaskPool, config, count: int):
        from .app import AssignmentDaemon

        if count < 1:
            raise ShardError(f"shard count must be >= 1, got {count}")
        self.daemons = []
        for index in range(count):
            spec = None
            if config.corpus_spec is not None:
                spec = dict(config.corpus_spec)
                spec["shard"] = {"index": index, "count": count}
            journal = None
            if config.journal_path:
                journal = _shard_journal_path(config.journal_path, index)
            shard_config = replace(
                config,
                port=0,
                shard_id=index,
                corpus_spec=spec,
                journal_path=journal,
            )
            self.daemons.append(
                AssignmentDaemon(shard_slice(pool, index, count), shard_config)
            )

    async def start(self) -> None:
        for daemon in self.daemons:
            await daemon.start()

    async def stop(self) -> None:
        for daemon in self.daemons:
            await daemon.stop()

    @property
    def specs(self) -> list[ShardSpec]:
        return [
            ShardSpec(index=i, host=d.config.host, port=d.port)
            for i, d in enumerate(self.daemons)
        ]


def _shard_journal_path(base: str, index: int) -> str:
    """Per-shard journal path derived from a base path."""
    if base.endswith(".jsonl"):
        return f"{base[: -len('.jsonl')]}-shard{index}.jsonl"
    return f"{base}-shard{index}"


# -- coordination ------------------------------------------------------------


class ShardCoordinator:
    """Owns the ring, the per-shard clients, and the drain protocol.

    The router embeds one of these.  Clients are keep-alive
    :class:`~repro.serve.protocol.HttpClient` instances, one per shard,
    serialized by a per-shard lock (the protocol client is single-flight
    by design).
    """

    def __init__(self, specs: Sequence[ShardSpec], replicas: int = 64):
        if not specs:
            raise ShardError("a coordinator needs at least one shard")
        self.specs: dict[int, ShardSpec] = {s.index: s for s in specs}
        if len(self.specs) != len(specs):
            raise ShardError("duplicate shard indices")
        self.ring = HashRing((s.key for s in specs), replicas=replicas)
        self._clients: dict[int, HttpClient] = {}
        self._locks: dict[int, asyncio.Lock] = {}

    def shard_for(self, worker_id: str) -> int:
        """The shard index owning ``worker_id`` at the current ring."""
        return shard_index(self.ring.owner_of(worker_id))

    def live_indices(self) -> list[int]:
        """Indices currently on the ring, ascending."""
        return sorted(shard_index(k) for k in self.ring.keys())

    async def request(
        self,
        index: int,
        method: str,
        path: str,
        payload: object | None = None,
        headers: "dict[str, str] | None" = None,
    ) -> tuple[int, object]:
        """One serialized request to shard ``index``.

        Raises ``ConnectionError``/``OSError`` when the shard is
        unreachable — the router's stale-display ladder catches those.
        """
        spec = self.specs.get(index)
        if spec is None:
            raise ShardError(f"unknown shard index {index}")
        client = self._clients.get(index)
        if client is None:
            client = HttpClient(spec.host, spec.port)
            self._clients[index] = client
            self._locks[index] = asyncio.Lock()
        async with self._locks[index]:
            return await client.request(method, path, payload, headers)

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()

    async def drain(self, index: int) -> dict:
        """Drain shard ``index`` and rebalance its workers onto the rest.

        Protocol: take the shard off the ring (new work routes elsewhere
        immediately), quiesce it (``POST /admin/drain`` — stop solving,
        wait out queued solves), export every worker session
        (``POST /admin/handoff``), group the exports by their new ring
        owner, and adopt (``POST /admin/adopt``).  Returns what moved so
        the caller can journal it:

        ``{"ring_version", "moved": {worker_id: target_index},
        "adopted": {target_index: [worker_ids]}}``
        """
        if shard_key(index) not in self.ring:
            raise ShardError(f"shard {index} is not on the ring")
        if len(self.ring) < 2:
            raise ShardError("cannot drain the last shard on the ring")
        ring_version = self.ring.remove(shard_key(index))
        status, body = await self.request(index, "POST", "/admin/drain")
        if status != 200:
            raise ShardError(f"drain of shard {index} failed: {body!r}")
        status, body = await self.request(index, "POST", "/admin/handoff")
        if status != 200:
            raise ShardError(f"handoff from shard {index} failed: {body!r}")
        exports: dict[str, dict] = body["workers"]
        by_target: dict[int, dict[str, dict]] = {}
        for worker_id, blob in exports.items():
            target = self.shard_for(worker_id)
            by_target.setdefault(target, {})[worker_id] = blob
        adopted: dict[int, list[str]] = {}
        for target, workers in sorted(by_target.items()):
            status, body = await self.request(
                target, "POST", "/admin/adopt", {"workers": workers}
            )
            if status != 200:
                raise ShardError(
                    f"adopt on shard {target} failed: {body!r}"
                )
            adopted[target] = body["adopted"]
        return {
            "ring_version": ring_version,
            "moved": {
                worker_id: target
                for target, workers in sorted(by_target.items())
                for worker_id in workers
            },
            "adopted": adopted,
        }
