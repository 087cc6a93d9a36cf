"""The ``asyncio`` front-end: many sessions, one maintained store.

Protocol: newline-delimited JSON over TCP. Every request is one object
per line with an ``op`` field (and an optional ``id``, echoed back);
every response is one object with ``ok`` plus op-specific fields.

Write path — *micro-batching*. A ``commit`` request does not run the
transaction inline: it lands on the submission queue and the single
writer task drains whatever is queued (bounded by ``max_batch``, padded
by ``batch_window`` seconds of gathering), admitting the whole batch
through :meth:`RevisionService.submit_batch`, run off the event loop in
the loop's default thread executor so sessions keep being served. The
more sessions submit concurrently, the more transactions share one
scheduling pass and one journal fsync (benchmark E22b counts them).

Read path — sessions either query the live model (serialized with the
writer, one consistent read) or ``pin`` a checkpoint epoch and ``read``
against it however long they like while writers revise; ``release``
drops the pin. Pins are per-connection and released on disconnect.

Ops::

    {"op": "ping"}                          -> {"ok": true, "revision": N}
    {"op": "commit", "updates": ["+d(a,1)", "-d(a,2)"]}
                                            -> {"ok": true, "committed": true,
                                                "seq": N, "mode": "commuting"}
    {"op": "query", "fact": "posted(a,1)"}  -> {"ok": true, "holds": true}
    {"op": "pin"}                           -> {"ok": true, "view": "v1",
                                                "epoch": N}
    {"op": "read", "view": "v1", "fact": F} -> {"ok": true, "holds": ...}
    {"op": "rows", "relation": "posted", ["view": "v1"]}
                                            -> {"ok": true, "rows": [...]}
    {"op": "release", "view": "v1"}         -> {"ok": true}
    {"op": "log"} / {"op": "undo", "n": 1} / {"op": "redo", "n": 1}
    {"op": "metrics"}                       -> Prometheus text exposition
    {"op": "shutdown"}                      -> {"ok": true} then the server
                                               drains and exits

An update is either a signed fact string (``"+deposit(a, 5)"``,
``"-deposit(a, 5)"``; no sign means insert) or an explicit
``{"op": "insert_rule", "subject": "p(X) :- q(X)."}`` object.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from ..datalog.parser import parse_fact
from ..obs import OBS
from .core import ReadView, RevisionService


def parse_update(spec) -> Tuple[str, object]:
    """One protocol update spec -> (operation, subject)."""
    if isinstance(spec, str):
        text = spec.strip()
        operation = "insert_fact"
        if text.startswith("+"):
            text = text[1:]
        elif text.startswith("-"):
            operation = "delete_fact"
            text = text[1:]
        return operation, parse_fact(text.strip().rstrip(". "))
    if isinstance(spec, dict):
        return spec["op"], spec["subject"]
    raise ValueError(f"unparsable update spec {spec!r}")


class _PendingCommit:
    __slots__ = ("name", "updates", "future")

    def __init__(self, name, updates, future):
        self.name = name
        self.updates = updates
        self.future = future


class RevisionServer:
    """One service behind a newline-JSON TCP listener."""

    def __init__(
        self,
        service: RevisionService,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.max_batch = max_batch
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: asyncio.Queue = asyncio.Queue()
        self._writer_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self._txn_counter = 0
        self._view_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._writer_task = asyncio.ensure_future(self._writer_loop())

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._writer_task is not None:
            await self._queue.put(None)  # sentinel: drain then exit
            await self._writer_task
            self._writer_task = None
        self._stopped.set()

    # ------------------------------------------------------------------
    # The single-writer micro-batching loop
    # ------------------------------------------------------------------

    async def _writer_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            pending = [item]
            self._drain_into(pending)
            if self.batch_window > 0 and len(pending) < self.max_batch:
                # One short gathering pause: lets concurrent sessions'
                # commits pile onto this batch instead of the next fsync.
                await asyncio.sleep(self.batch_window)
                self._drain_into(pending)
            batch = [(p.name, p.updates) for p in pending]
            try:
                result = await loop.run_in_executor(
                    None, self.service.submit_batch, batch
                )
            except Exception as error:  # noqa: BLE001
                for p in pending:
                    if not p.future.done():
                        p.future.set_result(
                            {"committed": False, "error": str(error)}
                        )
                continue
            seq_of = dict(
                zip(
                    (o.name for o in result.outcomes if o.committed),
                    result.seqs,
                )
            )
            for p, outcome in zip(pending, result.outcomes):
                payload = {
                    "committed": outcome.committed,
                    "mode": outcome.mode,
                    "revision": result.revision,
                }
                if outcome.committed:
                    payload["seq"] = seq_of[outcome.name]
                else:
                    payload["error"] = outcome.error
                if not p.future.done():
                    p.future.set_result(payload)

    def _drain_into(self, pending) -> None:
        while len(pending) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is None:
                # re-queue the stop sentinel for the outer loop
                self._queue.put_nowait(None)
                return
            pending.append(item)

    # ------------------------------------------------------------------
    # Per-connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        views: dict[str, ReadView] = {}
        if OBS.enabled:
            OBS.metrics.gauge(
                "repro_service_sessions",
                "Connected protocol sessions",
            ).inc()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request: dict = {}
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request, views)
                except Exception as error:  # noqa: BLE001
                    response = {"ok": False, "error": str(error)}
                    if isinstance(request, dict) and "id" in request:
                        response["id"] = request["id"]
                writer.write(
                    json.dumps(response, sort_keys=True).encode() + b"\n"
                )
                await writer.drain()
                if response.get("stopping"):
                    break
        finally:
            for view in views.values():
                view.release()
            if OBS.enabled:
                OBS.metrics.gauge(
                    "repro_service_sessions",
                    "Connected protocol sessions",
                ).dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict, views: dict) -> dict:
        op = request.get("op")
        response: dict = {"ok": True}
        if "id" in request:
            response["id"] = request["id"]
        loop = asyncio.get_event_loop()
        service = self.service
        if op == "ping":
            response["revision"] = service.revision
        elif op == "commit":
            updates = [parse_update(spec) for spec in request["updates"]]
            self._txn_counter += 1
            name = f"t{self._txn_counter}"
            future: asyncio.Future = loop.create_future()
            await self._queue.put(_PendingCommit(name, updates, future))
            outcome = await future
            response["name"] = name
            response.update(outcome)
            response["ok"] = True
        elif op == "query":
            response["holds"] = await loop.run_in_executor(
                None, service.holds, request["fact"]
            )
            response["revision"] = service.revision
        elif op == "pin":
            view = await loop.run_in_executor(None, service.read_view)
            self._view_counter += 1
            token = f"v{self._view_counter}"
            views[token] = view
            response["view"] = token
            response["epoch"] = view.epoch
        elif op == "read":
            view = views[request["view"]]
            response["holds"] = view.holds(request["fact"])
            response["epoch"] = view.epoch
        elif op == "rows":
            token = request.get("view")
            if token is not None:
                rows = views[token].rows(request["relation"])
            else:
                with await loop.run_in_executor(
                    None, service.read_view
                ) as view:
                    rows = view.rows(request["relation"])
            response["rows"] = [list(row) for row in rows]
        elif op == "release":
            view = views.pop(request["view"], None)
            if view is not None:
                view.release()
        elif op == "log":
            response["lines"] = await loop.run_in_executor(None, service.log)
        elif op == "undo":
            response["revision"] = await loop.run_in_executor(
                None, service.undo, int(request.get("n", 1))
            )
        elif op == "redo":
            response["revision"] = await loop.run_in_executor(
                None, service.redo, int(request.get("n", 1))
            )
        elif op == "metrics":
            response["exposition"] = OBS.metrics.exposition()
        elif op == "shutdown":
            response["stopping"] = True
            asyncio.ensure_future(self.stop())
        else:
            response = {"ok": False, "error": f"unknown op {op!r}"}
            if "id" in request:
                response["id"] = request["id"]
        return response


class ServiceClient:
    """A minimal pipelining client for tests, benchmarks and the smoke."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._counter = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, op: str, **fields) -> dict:
        self._counter += 1
        payload = {"op": op, "id": self._counter, **fields}
        self._writer.write(
            json.dumps(payload, sort_keys=True).encode() + b"\n"
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def commit(self, updates) -> dict:
        return await self.request("commit", updates=list(updates))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    service: RevisionService,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_window: float = 0.002,
    max_batch: int = 64,
    ready=None,
) -> None:
    """Run a :class:`RevisionServer` until a ``shutdown`` op arrives.

    *ready*, when given, is called with the started server (the actual
    port is on ``server.port``) — the hook the CLI uses to print the
    address and the smoke test uses to connect.
    """
    server = RevisionServer(
        service,
        host=host,
        port=port,
        batch_window=batch_window,
        max_batch=max_batch,
    )
    await server.start()
    if ready is not None:
        ready(server)
    await server.wait_stopped()
