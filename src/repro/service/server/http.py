"""Asyncio HTTP/JSON front end over the JobService (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio`` streams — no
third-party web framework, matching the repo's no-new-dependencies rule —
exposing the serving tier's endpoints::

    POST   /v1/jobs            submit  {tenant, circuit, method, options,
                                        params | param_grid, tag}
    GET    /v1/jobs/{id}        poll one job
    GET    /v1/jobs/{id}/stream chunked per-point results (one JSON per line)
    DELETE /v1/jobs/{id}        cancel
    GET    /v1/stats            service + scheduler + admission + journal
                                stats (the versioned engine_stats()/metrics
                                schema)
    GET    /v1/metrics          Prometheus text exposition of every service
                                counter/gauge/histogram, p99 exemplars
                                linking to traces
    GET    /v1/traces/{job_id}  one request's assembled span tree
    GET    /v1/traces           recent request traces (?tenant=, ?slow=1)
                                plus the slow-request log

Request handling never blocks the event loop: ``JobService`` calls —
submit (journal append), result waits, cancellation — run on the loop's
default thread-pool executor, and the stream endpoint pulls each next
point through the executor too, writing it out as one chunk as soon as the
worker produces it.

Tracing starts here: a submit carrying a W3C ``traceparent`` header joins
the caller's distributed trace (the ingress honors its sampling flag);
otherwise the server mints a :class:`~repro.obs.tracing.TraceContext`
head-sampled at the tenant's configured rate.  Responses echo
``traceparent`` and error bodies carry the ``trace_id``, so a client can
always quote the id that ``/v1/traces/{job_id}`` resolves.

Admission rejections surface as ``429`` with both a ``Retry-After`` header
and a JSON body; pruned-but-journaled jobs answer ``410 Gone`` carrying
their final journaled status instead of a bare ``404``.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
import time
from typing import TYPE_CHECKING

from ...errors import CircuitFormatError, QymeraError
from ...io.json_io import circuit_from_dict
from ...obs.metrics import PROMETHEUS_CONTENT_TYPE, global_registry, prometheus_exposition
from ...obs.tracing import TraceContext, new_trace_id, span_record
from ..jobs import JobRequest, JobService
from .admission import AdmissionRejected
from .scheduler import QuotaExceeded

if TYPE_CHECKING:  # pragma: no cover
    from .journal import JobJournal

#: Upper bound on accepted request bodies (a circuit document plus a large
#: parameter grid fits comfortably; anything bigger is a client bug).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(QymeraError):
    """Maps to a 400 with the message as the error body."""


def parse_job_payload(payload: dict) -> JobRequest:
    """Build a :class:`JobRequest` from a submit body (raises on bad input)."""
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    circuit_doc = payload.get("circuit")
    if not isinstance(circuit_doc, dict):
        raise _BadRequest("missing or invalid 'circuit' document")
    try:
        circuit = circuit_from_dict(circuit_doc)
    except CircuitFormatError as exc:
        raise _BadRequest(f"invalid circuit: {exc}") from exc
    params = payload.get("params")
    param_grid = payload.get("param_grid")
    if params is not None and not isinstance(params, dict):
        raise _BadRequest("'params' must be an object of name -> value")
    if param_grid is not None and (
        not isinstance(param_grid, list) or not all(isinstance(p, dict) for p in param_grid)
    ):
        raise _BadRequest("'param_grid' must be a list of objects")
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise _BadRequest("'options' must be an object")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _BadRequest("'tenant' must be a non-empty string")
    try:
        return JobRequest(
            circuit=circuit,
            method=str(payload.get("method", "memdb")),
            options=options,
            params=params,
            param_grid=param_grid,
            tag=str(payload.get("tag", "")),
            tenant=tenant,
        )
    except QymeraError as exc:
        raise _BadRequest(str(exc)) from exc


class JobServer:
    """The serving tier's network surface: one JobService behind HTTP.

    Parameters
    ----------
    service:
        The (scheduler/journal-equipped) :class:`JobService` to serve.
    host / port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    result_rows:
        When False (default), job results are summarized without the full
        amplitude row dump — poll payloads stay small; pass
        ``?rows=1`` on the poll/stream URL to get full states.
    """

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 0,
        result_rows: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.result_rows = bool(result_rows)
        self._server: asyncio.base_events.Server | None = None
        self._requests_served = 0
        self._lock = threading.Lock()
        self._client_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (resolves the real port)."""
        if self._server is not None:
            raise QymeraError("the server is already running")
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Keep-alive handlers may still be parked in readline: cancel them
        # so the loop shuts down without pending-task warnings. A handler
        # task created for a just-accepted connection may not have run its
        # first step yet (so it is not registered in _client_tasks); the
        # listener is closed, so yielding to the loop lets every such task
        # start and register, then the cancel sweep drains the set.
        for _ in range(3):
            await asyncio.sleep(0)
        while self._client_tasks:
            pending = list(self._client_tasks)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            await asyncio.sleep(0)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------- request parsing

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query, body, headers, keep_alive = request
                with self._lock:
                    self._requests_served += 1
                started = time.perf_counter()
                route = self._route_family(path)
                # Ingress trace identity: join the caller's trace when a
                # valid traceparent arrived; reqinfo carries the id so every
                # error body below can echo it.
                context = TraceContext.from_traceparent(headers.get("traceparent", ""))
                reqinfo = {"trace_id": context.trace_id if context is not None else ""}
                status = 500
                try:
                    status = await self._dispatch(
                        method, path, query, body, context, reqinfo, writer
                    )
                except _BadRequest as exc:
                    status = 400
                    await self._send_json(
                        writer, 400, {"error": str(exc), **self._trace_ref(reqinfo)}
                    )
                except (AdmissionRejected, QuotaExceeded) as exc:
                    status = 429
                    await self._send_json(
                        writer,
                        429,
                        {"error": str(exc), "reason": exc.reason,
                         "retry_after": exc.retry_after, **self._trace_ref(reqinfo)},
                        headers={"Retry-After": f"{max(exc.retry_after, 0.0):.3f}"},
                    )
                except QymeraError as exc:
                    status = 500
                    await self._send_json(
                        writer, 500,
                        {"error": str(exc), "trace_id": self._error_trace_id(reqinfo)},
                    )
                except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
                    status = 500
                    await self._send_json(
                        writer, 500,
                        {"error": f"internal error: {exc}",
                         "trace_id": self._error_trace_id(reqinfo)},
                    )
                metrics = self.service.metrics
                metrics.counter("http.requests_total").inc()
                if status >= 500:
                    metrics.counter("http.errors_total").inc()
                metrics.histogram(f"http.route.{route}.latency_seconds").observe(
                    time.perf_counter() - started,
                    exemplar=(
                        {"trace_id": reqinfo["trace_id"]} if reqinfo["trace_id"] else None
                    ),
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        try:
            method, target, version = request_line.decode("ascii").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            # A garbage Content-Length used to escape as an unhandled
            # ValueError and kill the connection task; treat it as a
            # malformed request instead.
            return None
        if length > MAX_BODY_BYTES or length < 0:
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = target.partition("?")
        query: dict[str, str] = {}
        for pair in query_string.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        keep_alive = headers.get("connection", "").lower() != "close" and version.upper() != "HTTP/1.0"
        return method.upper(), path, query, body, headers, keep_alive

    # ------------------------------------------------------------ dispatching

    @staticmethod
    def _route_family(path: str) -> str:
        """Normalized route label for per-route latency metrics."""
        parts = [part for part in path.split("/") if part]
        if parts[:1] != ["v1"] or len(parts) < 2:
            return "other"
        head = parts[1]
        if head == "jobs":
            if len(parts) == 2:
                return "/v1/jobs"
            if len(parts) == 3:
                return "/v1/jobs/{id}"
            if len(parts) == 4 and parts[3] == "stream":
                return "/v1/jobs/{id}/stream"
            return "other"
        if head in ("stats", "metrics"):
            return f"/v1/{head}"
        if head == "traces":
            return "/v1/traces" if len(parts) == 2 else "/v1/traces/{id}"
        return "other"

    def _trace_store(self):
        tracer = self.service.tracer
        return tracer.request_store if tracer is not None else None

    def _sample_rate(self, tenant: str) -> float:
        scheduler = self.service.scheduler
        return 1.0 if scheduler is None else scheduler.sample_rate(tenant)

    @staticmethod
    def _trace_ref(reqinfo: dict) -> dict:
        return {"trace_id": reqinfo["trace_id"]} if reqinfo["trace_id"] else {}

    @staticmethod
    def _error_trace_id(reqinfo: dict) -> str:
        """The id a 500 body quotes — minted when the request had none.

        A minted id resolves to no stored trace, but gives client and
        server logs a shared correlation key for the failure.
        """
        if not reqinfo["trace_id"]:
            reqinfo["trace_id"] = new_trace_id()
        return reqinfo["trace_id"]

    async def _dispatch(self, method, path, query, body, context, reqinfo, writer) -> int:
        parts = [part for part in path.split("/") if part]
        if parts[:1] != ["v1"]:
            return await self._send_json(writer, 404, {"error": f"unknown path {path!r}"})
        if parts == ["v1", "jobs"] and method == "POST":
            return await self._submit(body, context, reqinfo, writer)
        if parts == ["v1", "stats"] and method == "GET":
            return await self._stats(writer)
        if parts == ["v1", "metrics"] and method == "GET":
            return await self._metrics(writer)
        if parts == ["v1", "traces"] and method == "GET":
            return await self._traces_query(query, writer)
        if len(parts) == 3 and parts[1] == "traces" and method == "GET":
            return await self._trace_for_job(parts[2], writer)
        if len(parts) >= 3 and parts[1] == "jobs":
            try:
                job_id = int(parts[2])
            except ValueError:
                raise _BadRequest(f"job id must be an integer, got {parts[2]!r}")
            if len(parts) == 3 and method == "GET":
                return await self._poll(job_id, query, writer)
            if len(parts) == 3 and method == "DELETE":
                return await self._cancel(job_id, writer)
            if len(parts) == 4 and parts[3] == "stream" and method == "GET":
                return await self._stream(job_id, query, writer)
        return await self._send_json(writer, 405 if parts[1:2] == ["jobs"] else 404,
                                     {"error": f"unsupported {method} {path}"})

    # -------------------------------------------------------------- handlers

    async def _submit(self, body: bytes, context, reqinfo, writer) -> int:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from exc
        request = parse_job_payload(payload)
        # Attach trace identity before the service sees the request: a
        # traceparent-derived context keeps the caller's sampling decision;
        # otherwise mint one head-sampled at the tenant's rate.
        trace = context
        if trace is None and self._trace_store() is not None:
            rate = self._sample_rate(request.tenant)
            trace = TraceContext.generate(sampled=random.random() < rate)
        if trace is not None:
            request.trace = trace
            reqinfo["trace_id"] = trace.trace_id
        loop = asyncio.get_running_loop()
        # submit() appends to the journal and may price the plan — off-loop.
        handle = await loop.run_in_executor(None, self.service.submit, request)
        store = self._trace_store()
        if trace is not None and store is not None:
            # The ingress span: parse + admission + journal + enqueue, i.e.
            # the synchronous slice of the request the HTTP thread observed.
            store.record(span_record(
                "ingress",
                trace_id=trace.trace_id,
                parent_span_id=trace.span_id,
                start_s=trace.started_s,
                attrs={"route": "/v1/jobs", "tenant": request.tenant},
            ))
        response = {
            "job_id": handle.job_id, "status": handle.status(), "tenant": request.tenant,
        }
        response_headers = None
        if trace is not None:
            response["trace_id"] = trace.trace_id
            response_headers = {"traceparent": trace.to_traceparent()}
        return await self._send_json(writer, 202, response, headers=response_headers)

    async def _poll(self, job_id: int, query, writer) -> int:
        loop = asyncio.get_running_loop()
        try:
            handle = self.service.job(job_id)
        except QymeraError:
            final = self.service.final_status(job_id)
            if final is not None:
                final["error_detail"] = final.pop("error", "")
                final["source"] = "journal"
                return await self._send_json(writer, 410, final)
            return await self._send_json(writer, 404, {"error": f"no job with id {job_id}"})
        snapshot = handle.poll()
        if snapshot["status"] == "done" and query.get("rows") == "1":
            results = await loop.run_in_executor(None, lambda: handle.result(timeout=0.0))
            if not isinstance(results, list):
                results = [results]
            snapshot["results"] = [result.to_dict() for result in results]
        return await self._send_json(writer, 200, snapshot)

    async def _cancel(self, job_id: int, writer) -> int:
        loop = asyncio.get_running_loop()
        try:
            handle = self.service.job(job_id)
        except QymeraError:
            final = self.service.final_status(job_id)
            if final is not None:
                return await self._send_json(writer, 410, final)
            return await self._send_json(writer, 404, {"error": f"no job with id {job_id}"})
        cancelled = await loop.run_in_executor(None, handle.cancel)
        return await self._send_json(
            writer, 200, {"job_id": job_id, "cancelled": cancelled, "status": handle.status()}
        )

    async def _stream(self, job_id: int, query, writer) -> int:
        try:
            timeout = float(query.get("timeout", "300"))
        except ValueError:
            timeout = math.nan
        if not (0 < timeout < math.inf):
            raise _BadRequest("'timeout' must be a positive, finite number of seconds")
        try:
            handle = self.service.job(job_id)
        except QymeraError:
            final = self.service.final_status(job_id)
            status = 410 if final is not None else 404
            return await self._send_json(
                writer, status, final or {"error": f"no job with id {job_id}"}
            )
        loop = asyncio.get_running_loop()
        include_rows = query.get("rows") == "1"
        await self._send_head(
            writer,
            200,
            {"Content-Type": "application/x-ndjson", "Transfer-Encoding": "chunked"},
        )
        iterator = handle.stream(timeout=timeout)
        sentinel = object()

        def pull():
            try:
                return next(iterator)
            except StopIteration:
                return sentinel

        try:
            while True:
                try:
                    item = await loop.run_in_executor(None, pull)
                except QymeraError as exc:
                    await self._write_chunk(writer, json.dumps({"error": str(exc)}) + "\n")
                    break
                if item is sentinel:
                    break
                record = item.to_dict()
                if not include_rows:
                    record.pop("rows", None)
                await self._write_chunk(writer, json.dumps(record) + "\n")
            await self._write_chunk(
                writer, json.dumps({"job_id": job_id, "status": handle.status()}) + "\n"
            )
        finally:
            # Terminating zero-length chunk ends the response.
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        return 200

    async def _stats(self, writer) -> int:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self.service.stats)
        payload = {"schema_version": 1, "requests_served": self._requests_served, "service": stats}
        return await self._send_json(writer, 200, payload)

    async def _metrics(self, writer) -> int:
        """Prometheus text exposition of the process's metric registries.

        The service registry is rendered after the global one, so a name
        collision resolves in favor of the serving tier's numbers.
        """
        loop = asyncio.get_running_loop()

        def render() -> str:
            return prometheus_exposition(
                global_registry().snapshot(), self.service.metrics.snapshot()
            )

        text = await loop.run_in_executor(None, render)
        body = text.encode("utf-8")
        await self._send_head(writer, 200, {
            "Content-Type": PROMETHEUS_CONTENT_TYPE,
            "Content-Length": str(len(body)),
        })
        writer.write(body)
        await writer.drain()
        return 200

    async def _trace_for_job(self, job_part: str, writer) -> int:
        try:
            job_id = int(job_part)
        except ValueError:
            raise _BadRequest(f"job id must be an integer, got {job_part!r}")
        store = self._trace_store()
        if store is None:
            return await self._send_json(
                writer, 404, {"error": "request tracing is not enabled on this server"}
            )
        trace = store.for_job(job_id)
        if trace is None:
            return await self._send_json(
                writer, 404,
                {"error": f"no retained trace for job {job_id} "
                          "(not sampled, evicted, or unknown id)"},
            )
        return await self._send_json(writer, 200, trace)

    async def _traces_query(self, query, writer) -> int:
        store = self._trace_store()
        if store is None:
            return await self._send_json(
                writer, 404, {"error": "request tracing is not enabled on this server"}
            )
        tenant = query.get("tenant") or None
        slow = query.get("slow") == "1"
        try:
            limit = max(1, int(query.get("limit", "50")))
        except ValueError:
            raise _BadRequest("'limit' must be an integer")
        payload = {
            "traces": store.query(tenant=tenant, slow=slow, limit=limit),
            "slow_requests": store.slow_requests(tenant=tenant),
            "store": store.stats(),
        }
        return await self._send_json(writer, 200, payload)

    # --------------------------------------------------------------- writing

    async def _send_head(self, writer, status: int, headers: dict) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _send_json(self, writer, status: int, payload: dict, headers: dict | None = None) -> int:
        body = json.dumps(payload, default=repr).encode("utf-8")
        head = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
        }
        if headers:
            head.update(headers)
        await self._send_head(writer, status, head)
        writer.write(body)
        await writer.drain()
        return status

    async def _write_chunk(self, writer, text: str) -> None:
        data = text.encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        await writer.drain()


class ServerThread:
    """Run a :class:`JobServer` on a background event loop thread.

    The synchronous harness tests, benchmarks and ``examples/serve.py``
    need a live server next to blocking client code; this owns the loop::

        with ServerThread(server) as addr:
            requests went to http://{addr[0]}:{addr[1]}
    """

    def __init__(self, server: JobServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise QymeraError("the server thread is already running")

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.server.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(target=run, name="qymera-http", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise QymeraError("the HTTP server did not start within 10s")
        return self.server.host, self.server.port

    def stop(self) -> None:
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
            self._loop = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
