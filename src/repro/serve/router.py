"""The shard router: one thin asyncio front door over N assignment shards.

The router owns no assignment state — just the consistent-hash ring
(:class:`repro.serve.shard.HashRing`), one keep-alive
:class:`~repro.serve.protocol.HttpClient` per shard, and a per-worker cache
of the last display each worker was shown.  Every worker-scoped request
(``POST /workers``, ``POST /complete``, ``GET /display/{id}``,
``DELETE /workers/{id}``) is proxied to the ring owner of the worker id;
``POST /tasks`` batches are split by the ring owner of each *task* id;
``GET /metrics`` and ``GET /healthz`` fan out to every live shard and come
back aggregated.

Failure posture mirrors the shards' own degradation ladder: when a worker's
owner shard is unreachable, ``GET /display`` and ``POST /complete`` answer
``200`` from the router's last-display cache with ``"stale": true`` — a
worker keeps something to do while the shard restarts — and only a fresh
registration (no state to fall back on) sees ``502``.

Every routing decision is journaled (:class:`RoutingJournal`) with the ring
version that made it, and ring changes and worker handoffs are journaled as
they happen, so :func:`verify_routing_journal` can replay the whole routing
history against a rebuilt ring and prove that no request was ever sent to a
shard that did not own it.  Together with the per-shard flight journals
(which ``repro replay`` verifies bit-identically), this gives the sharded
topology the same end-to-end determinism story as the single daemon.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from .metrics import MetricsRegistry
from .protocol import (
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from .shard import (
    HashRing,
    ShardCoordinator,
    ShardError,
    ShardSpec,
    shard_index,
    shard_key,
)

#: Layout version of the routing journal (header + event lines).
ROUTING_JOURNAL_VERSION = 1

#: Exceptions that mean "the shard is unreachable", as opposed to "the shard
#: answered with an error" — only the former triggers the stale-cache path.
_SHARD_DOWN = (ConnectionError, OSError, asyncio.IncompleteReadError, EOFError)


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs: where to listen and where to journal routing."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: JSONL routing journal (see :func:`verify_routing_journal`); ``None``
    #: disables journaling.
    journal_path: str | None = None
    #: Virtual nodes per shard on the hash ring.
    ring_replicas: int = 64


class RoutingJournal:
    """Append-only JSONL record of every routing decision and ring change.

    Line 1 is a header pinning the initial ring (member keys + replica
    count rebuild it exactly); every following line is one event:

    * ``route`` — a worker-scoped request went to ``shard`` under
      ``ring_version``;
    * ``ring`` — a member joined/left, bumping the version;
    * ``handoff`` — a drained worker moved ``from`` → ``to``.

    Deterministic and self-verifying: :func:`verify_routing_journal`
    replays the ring and re-derives every ``route``/``handoff`` owner.
    """

    def __init__(self, path: str, ring: HashRing, specs: list[ShardSpec]):
        self._file = open(path, "w", encoding="utf-8")
        self.seq = 0
        self._write(
            {
                "version": ROUTING_JOURNAL_VERSION,
                "kind": "routing",
                "ring": ring.to_dict(),
                "shards": [
                    {"index": s.index, "host": s.host, "port": s.port}
                    for s in specs
                ],
            }
        )

    def _write(self, payload: dict) -> None:
        self._file.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._file.flush()

    def record_route(
        self, op: str, worker_id: str, shard: int, ring_version: int
    ) -> None:
        self.seq += 1
        self._write(
            {
                "seq": self.seq,
                "type": "route",
                "op": op,
                "worker_id": worker_id,
                "shard": shard,
                "ring_version": ring_version,
            }
        )

    def record_ring(self, action: str, key: str, ring_version: int) -> None:
        self.seq += 1
        self._write(
            {
                "seq": self.seq,
                "type": "ring",
                "action": action,
                "key": key,
                "ring_version": ring_version,
            }
        )

    def record_handoff(
        self, worker_id: str, source: int, target: int, ring_version: int
    ) -> None:
        self.seq += 1
        self._write(
            {
                "seq": self.seq,
                "type": "handoff",
                "worker_id": worker_id,
                "from": source,
                "to": target,
                "ring_version": ring_version,
            }
        )

    def close(self) -> None:
        self._file.close()


def verify_routing_journal(path: str) -> dict:
    """Replay a routing journal and re-derive every decision it recorded.

    Rebuilds the ring from the header, applies each ``ring`` event in
    order, and checks that every ``route`` and ``handoff`` event named the
    shard the rebuilt ring owns for that worker id at that ring version.
    Returns ``{"events", "routes", "divergences": [str, ...]}``; an empty
    divergence list is the proof.
    """
    divergences: list[str] = []
    events = routes = 0
    with open(path, encoding="utf-8") as handle:
        header = json.loads(next(handle))
        if header.get("kind") != "routing":
            raise ShardError(f"{path} is not a routing journal")
        if header.get("version") != ROUTING_JOURNAL_VERSION:
            raise ShardError(
                f"routing journal version {header.get('version')!r} is not "
                f"supported (expected {ROUTING_JOURNAL_VERSION})"
            )
        ring = HashRing(
            header["ring"]["keys"], replicas=header["ring"]["replicas"]
        )
        if ring.version != header["ring"]["version"]:
            # The header version counts one bump per initial member; a
            # mismatch means the header was edited or the ring semantics
            # changed under the journal.
            divergences.append(
                f"header ring version {header['ring']['version']} != rebuilt "
                f"{ring.version}"
            )
        for line in handle:
            event = json.loads(line)
            events += 1
            kind = event["type"]
            if kind == "ring":
                if event["action"] == "add":
                    version = ring.add(event["key"])
                elif event["action"] == "remove":
                    version = ring.remove(event["key"])
                else:
                    divergences.append(
                        f"seq {event['seq']}: unknown ring action "
                        f"{event['action']!r}"
                    )
                    continue
                if version != event["ring_version"]:
                    divergences.append(
                        f"seq {event['seq']}: ring version {version} != "
                        f"recorded {event['ring_version']}"
                    )
            elif kind in ("route", "handoff"):
                routes += 1
                if ring.version != event["ring_version"]:
                    divergences.append(
                        f"seq {event['seq']}: decided at ring version "
                        f"{event['ring_version']}, journal is at {ring.version}"
                    )
                    continue
                owner = shard_index(ring.owner_of(event["worker_id"]))
                recorded = event["shard"] if kind == "route" else event["to"]
                if owner != recorded:
                    divergences.append(
                        f"seq {event['seq']}: worker {event['worker_id']!r} "
                        f"routed to shard {recorded}, ring owner is {owner}"
                    )
            else:
                divergences.append(
                    f"seq {event['seq']}: unknown event type {kind!r}"
                )
    return {"events": events, "routes": routes, "divergences": divergences}


class RouterDaemon:
    """The router process: ring + proxies + aggregations + drain."""

    def __init__(
        self, specs: list[ShardSpec], config: RouterConfig | None = None
    ):
        self.config = config or RouterConfig()
        self.coordinator = ShardCoordinator(
            specs, replicas=self.config.ring_replicas
        )
        self.registry = MetricsRegistry()
        r = self.registry
        self._requests = r.counter(
            "router_requests_total", "HTTP requests handled by the router"
        )
        self._errors = r.counter(
            "router_errors_total", "HTTP error responses sent by the router"
        )
        self._proxied = r.counter(
            "router_proxied_total", "Requests proxied to a shard"
        )
        self._stale = r.counter(
            "router_stale_responses_total",
            "Requests answered from the last-display cache (owner down)",
        )
        self._shard_errors = r.counter(
            "router_shard_errors_total",
            "Proxy attempts that found the owner shard unreachable",
        )
        self._drains = r.counter(
            "router_drains_total", "Shards drained and rebalanced"
        )
        # worker_id -> the last display payload any shard returned for it;
        # the stale-serving fallback when the owner shard is unreachable.
        self._last_display: dict[str, dict] = {}
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.monotonic()
        self._journal: RoutingJournal | None = None
        if self.config.journal_path:
            self._journal = RoutingJournal(
                self.config.journal_path, self.coordinator.ring, specs
            )

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coordinator.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status, {"error": exc.message}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                writer.write(await self._dispatch(request))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        self._requests.inc()
        keep_alive = request.keep_alive
        try:
            payload = await self._route(request)
            if isinstance(payload, bytes):
                return payload
            return json_response(200, payload, keep_alive=keep_alive)
        except HttpError as exc:
            self._errors.inc()
            return json_response(
                exc.status, {"error": exc.message}, keep_alive=keep_alive
            )
        except Exception as exc:  # never let one request kill the router
            self._errors.inc()
            return json_response(
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=keep_alive,
            )

    async def _route(self, request: Request) -> object:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return await self._healthz()
        if path == "/metrics" and method == "GET":
            return text_response(
                200, await self._metrics(), keep_alive=request.keep_alive
            )
        if path == "/vocabulary" and method == "GET":
            return await self._forward_any("GET", "/vocabulary")
        if path == "/workers" and method == "POST":
            return await self._post_workers(request)
        if path == "/complete" and method == "POST":
            return await self._post_complete(request)
        if path == "/tasks" and method == "POST":
            return await self._post_tasks(request)
        if path.startswith("/display/") and method == "GET":
            return await self._get_display(path.removeprefix("/display/"))
        if path.startswith("/workers/") and method == "DELETE":
            return await self._delete_worker(path.removeprefix("/workers/"))
        if path.startswith("/admin/drain/") and method == "POST":
            return await self._drain_shard(path.removeprefix("/admin/drain/"))
        raise HttpError(404, f"no route for {method} {request.path}")

    # -- worker-scoped proxies ----------------------------------------------

    def _owner(self, worker_id: str) -> int:
        try:
            return self.coordinator.shard_for(worker_id)
        except ShardError as exc:
            raise HttpError(503, str(exc)) from None

    def _record_route(self, op: str, worker_id: str, shard: int) -> None:
        if self._journal is not None:
            self._journal.record_route(
                op, worker_id, shard, self.coordinator.ring.version
            )

    async def _proxy(
        self, shard: int, method: str, path: str, payload: object | None = None
    ) -> tuple[int, object]:
        self._proxied.inc()
        return await self.coordinator.request(shard, method, path, payload)

    def _cache_display(self, worker_id: str, body: object) -> None:
        """Remember the display a shard just returned for this worker."""
        if isinstance(body, dict):
            display = body.get("display")
            if isinstance(display, dict):
                self._last_display[worker_id] = display

    def _relay(self, status: int, body: object) -> object:
        """Pass a shard's response through, re-raising its errors."""
        if status >= 400:
            message = (
                body.get("error", "shard error")
                if isinstance(body, dict)
                else str(body)
            )
            raise HttpError(status, message)
        return body

    async def _post_workers(self, request: Request) -> object:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "expected a JSON object")
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise HttpError(400, "worker_id must be a non-empty string")
        shard = self._owner(worker_id)
        self._record_route("register", worker_id, shard)
        try:
            status, response = await self._proxy(
                shard, "POST", "/workers", body
            )
        except _SHARD_DOWN:
            # A fresh registration has no cached state to serve from.
            self._shard_errors.inc()
            raise HttpError(
                502, f"shard {shard} (owner of {worker_id!r}) is unreachable"
            ) from None
        self._cache_display(worker_id, response)
        return self._relay(status, response)

    async def _post_complete(self, request: Request) -> object:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "expected a JSON object")
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise HttpError(400, "worker_id must be a non-empty string")
        shard = self._owner(worker_id)
        self._record_route("complete", worker_id, shard)
        try:
            status, response = await self._proxy(
                shard, "POST", "/complete", body
            )
        except _SHARD_DOWN:
            self._shard_errors.inc()
            return self._stale_payload(
                worker_id,
                shard,
                extra={"completed": body.get("task_id"), "reassigned": False},
            )
        self._cache_display(worker_id, response)
        return self._relay(status, response)

    async def _get_display(self, worker_id: str) -> object:
        if not worker_id:
            raise HttpError(400, "worker id missing from path")
        shard = self._owner(worker_id)
        self._record_route("display", worker_id, shard)
        try:
            status, response = await self._proxy(
                shard, "GET", f"/display/{worker_id}"
            )
        except _SHARD_DOWN:
            self._shard_errors.inc()
            return self._stale_payload(worker_id, shard)
        self._cache_display(worker_id, response)
        return self._relay(status, response)

    async def _delete_worker(self, worker_id: str) -> object:
        if not worker_id:
            raise HttpError(400, "worker id missing from path")
        shard = self._owner(worker_id)
        self._record_route("unregister", worker_id, shard)
        try:
            status, response = await self._proxy(
                shard, "DELETE", f"/workers/{worker_id}"
            )
        except _SHARD_DOWN:
            # Unregistration is idempotent on the shard; the client should
            # retry once the shard is back rather than believe a fake ack.
            self._shard_errors.inc()
            raise HttpError(
                502, f"shard {shard} (owner of {worker_id!r}) is unreachable"
            ) from None
        self._last_display.pop(worker_id, None)
        return self._relay(status, response)

    def _stale_payload(
        self, worker_id: str, shard: int, extra: "dict | None" = None
    ) -> dict:
        """The never-5xx fallback: the last display this router saw.

        The cached display is exactly what the shard last returned — C2
        guarantees the shard will never have displayed those tasks to
        anyone else meanwhile — so a worker keeps working its current
        display while the owner restarts.  Only a worker the router has
        never seen a display for gets a 404.
        """
        display = self._last_display.get(worker_id)
        if display is None:
            raise HttpError(
                404,
                f"shard {shard} (owner of {worker_id!r}) is unreachable and "
                f"the router holds no cached display",
            )
        self._stale.inc()
        payload = {"worker_id": worker_id, "stale": True, "display": display}
        if extra:
            payload.update(extra)
        return payload

    # -- task ingestion -------------------------------------------------------

    async def _post_tasks(self, request: Request) -> object:
        """Split a task batch across its ring owners.

        Each task id hashes to the shard that will own it for its lifetime
        (shortlist, display, completion all happen on that shard — disjoint
        from every other shard's pool by construction).  The split is NOT
        atomic across shards: each sub-batch is all-or-nothing on its
        shard, and the response reports per-shard outcomes so a client can
        retry just the rejected slice.
        """
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
            body.get("tasks"), list
        ):
            raise HttpError(400, "expected {'tasks': [...]}")
        by_shard: dict[int, list[dict]] = {}
        for entry in body["tasks"]:
            if not isinstance(entry, dict) or not isinstance(
                entry.get("task_id"), str
            ):
                raise HttpError(400, "each task needs a string task_id")
            by_shard.setdefault(
                self._owner(entry["task_id"]), []
            ).append(entry)
        admitted = 0
        remaining = 0
        per_shard: dict[str, dict] = {}
        failures = 0
        for shard, entries in sorted(by_shard.items()):
            try:
                status, response = await self._proxy(
                    shard, "POST", "/tasks", {"tasks": entries}
                )
            except _SHARD_DOWN:
                self._shard_errors.inc()
                per_shard[str(shard)] = {"error": "shard unreachable"}
                failures += 1
                continue
            if status >= 400 or not isinstance(response, dict):
                message = (
                    response.get("error", "rejected")
                    if isinstance(response, dict)
                    else str(response)
                )
                per_shard[str(shard)] = {"error": message, "status": status}
                failures += 1
                continue
            admitted += len(response.get("admitted", []))
            remaining += int(response.get("remaining_tasks", 0))
            per_shard[str(shard)] = {
                "admitted": len(response.get("admitted", []))
            }
        if failures and failures == len(by_shard):
            raise HttpError(409, f"every shard rejected the batch: {per_shard}")
        return {
            "admitted": admitted,
            "remaining_tasks": remaining,
            "per_shard": per_shard,
        }

    # -- drain / rebalance ----------------------------------------------------

    async def _drain_shard(self, index_text: str) -> dict:
        """Drain one shard and rebalance its workers onto the survivors.

        Runs the coordinator protocol (ring remove → quiesce → export →
        adopt on the new ring owners) and journals the ring change plus
        every worker movement, so the routing journal stays verifiable
        across the topology change.  The drained shard keeps serving its
        ``/admin`` surface but receives no further routed traffic.
        """
        try:
            index = int(index_text)
        except ValueError:
            raise HttpError(400, f"bad shard index {index_text!r}") from None
        try:
            result = await self.coordinator.drain(index)
        except ShardError as exc:
            raise HttpError(409, str(exc)) from None
        except _SHARD_DOWN as exc:
            self._shard_errors.inc()
            raise HttpError(
                502, f"shard {index} became unreachable mid-drain: {exc}"
            ) from None
        self._drains.inc()
        if self._journal is not None:
            self._journal.record_ring(
                "remove", shard_key(index), result["ring_version"]
            )
            for worker_id, target in sorted(result["moved"].items()):
                self._journal.record_handoff(
                    worker_id, index, target, result["ring_version"]
                )
        return result

    # -- aggregations ---------------------------------------------------------

    async def _forward_any(self, method: str, path: str) -> object:
        """Forward to the first reachable live shard (shared-nothing data)."""
        last_error: Exception | None = None
        for shard in self.coordinator.live_indices():
            try:
                status, response = await self._proxy(shard, method, path)
            except _SHARD_DOWN as exc:
                self._shard_errors.inc()
                last_error = exc
                continue
            return self._relay(status, response)
        raise HttpError(503, f"no shard reachable for {path}: {last_error}")

    async def _healthz(self) -> dict:
        shards: dict[str, dict] = {}
        workers = remaining = 0
        degraded = False
        for shard in sorted(self.coordinator.specs):
            live = shard in self.coordinator.live_indices()
            try:
                status, response = await self.coordinator.request(
                    shard, "GET", "/healthz"
                )
            except _SHARD_DOWN:
                self._shard_errors.inc()
                shards[str(shard)] = {"status": "unreachable", "live": live}
                degraded = degraded or live
                continue
            if not isinstance(response, dict):
                response = {"status": "unparseable"}
            shards[str(shard)] = {
                "status": response.get("status", "unknown"),
                "live": live,
                "workers": response.get("workers", 0),
                "remaining_tasks": response.get("remaining_tasks", 0),
                "draining": response.get("draining", False),
            }
            if live:
                workers += int(response.get("workers", 0))
                remaining += int(response.get("remaining_tasks", 0))
                degraded = degraded or response.get("status") != "ok"
        return {
            "status": "degraded" if degraded else "ok",
            "role": "router",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "workers": workers,
            "remaining_tasks": remaining,
            "ring": self.coordinator.ring.to_dict(),
            "shards": shards,
        }

    async def _metrics(self) -> str:
        """Sum the shards' Prometheus expositions line-by-line.

        Counters and gauges with identical name+labels add; histogram
        buckets and sums add too (they are just counters).  Comment lines
        (`# HELP`/`# TYPE`) pass through once.  The router's own registry
        is appended after the aggregate.
        """
        order: list[str] = []
        values: dict[str, float] = {}
        comments: list[str] = []
        seen_comments: set[str] = set()
        for shard in self.coordinator.live_indices():
            try:
                status, response = await self.coordinator.request(
                    shard, "GET", "/metrics"
                )
            except _SHARD_DOWN:
                self._shard_errors.inc()
                continue
            if status != 200 or not isinstance(response, str):
                continue
            for line in response.splitlines():
                if not line.strip():
                    continue
                if line.startswith("#"):
                    if line not in seen_comments:
                        seen_comments.add(line)
                        comments.append(line)
                    continue
                key, _, value_text = line.rpartition(" ")
                if not key:
                    continue
                try:
                    value = float(value_text)
                except ValueError:
                    continue
                if key not in values:
                    order.append(key)
                    values[key] = 0.0
                values[key] += value
        lines = comments + [
            f"{key} {_format_value(values[key])}" for key in order
        ]
        return "\n".join(lines) + "\n" + self.registry.render()


def _format_value(value: float) -> str:
    """Prometheus-style numbers: integral values without the trailing .0."""
    return str(int(value)) if value == int(value) else repr(value)


async def run_router(
    specs: list[ShardSpec], config: RouterConfig | None = None
) -> None:
    """Convenience runner: route until cancelled / interrupted."""
    router = RouterDaemon(specs, config)
    await router.serve_forever()
