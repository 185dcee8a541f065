"""Stdlib-only asyncio HTTP/1.1 front door for the sweep service.

Routes (all JSON; errors are structured ``{"error": {...}}`` envelopes):

* ``POST /v1/jobs`` — submit a grid spec; 200 with job id + dedup'd
  cache keys + the minted trace context, or 429 when the tenant's quota
  rejects it;
* ``GET /v1/jobs`` / ``GET /v1/jobs?tenant=t`` — list jobs;
* ``GET /v1/jobs/{id}`` — status (journal replay);
* ``GET /v1/jobs/{id}/events`` — chunked ``application/x-ndjson`` live
  stream interleaving the job journal (state changes, progress samples)
  with the sweep manifest (per-cell start/done/failed), until terminal;
* ``GET /v1/jobs/{id}/result`` — the canonical result bytes (409 until
  the job is done);
* ``GET /v1/jobs/{id}/trace`` — the fleet-merged Chrome trace (journal
  + manifest + worker beacons, one lane per process);
* ``DELETE /v1/jobs/{id}`` — cancel;
* ``GET /v1/tenants/{id}/usage`` — dedup accounting;
* ``GET /metrics`` — Prometheus text exposition of the scheduler's
  registry; ``GET /healthz`` — process liveness; ``GET /readyz`` —
  store writable + scheduler loop heartbeating (503 when not).

The HTTP layer is deliberately minimal — request line, headers,
``Content-Length`` bodies, chunked responses — because the only clients
are :mod:`repro.service.client`, curl, Prometheus, and CI.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro.experiments.cache import default_cache
from repro.experiments.supervisor import ManifestTail, manifest_path
from repro.service.queue import JobSpec
from repro.service.scheduler import QuotaExceeded, ServiceScheduler
from repro.telemetry.fleet import fleet_trace
from repro.telemetry.log import get_logger
from repro.telemetry.prometheus import encode_exposition

__all__ = ["ServiceServer", "ServiceHandle", "serve_in_thread"]

_MAX_BODY_BYTES = 1 << 20


class _HttpError(Exception):
    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(message)
        self.status = status
        self.payload = {
            "error": {"type": error_type, "status": status, "message": message}
        }


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_LOG = get_logger("server")


def _job_id_from_path(path: str) -> str | None:
    """Best-effort job id for error logs (``/v1/jobs/<id>...`` routes)."""
    segments = [s for s in urlsplit(path).path.split("/") if s]
    if segments[:2] == ["v1", "jobs"] and len(segments) >= 3:
        return segments[2]
    return None


class ServiceServer:
    """One asyncio server bound to a scheduler (same event loop)."""

    def __init__(
        self,
        scheduler: ServiceScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._scheduler_task: asyncio.Task | None = None

    async def start(self) -> None:
        """Bind the socket, recover the store, start the admission loop."""
        self.scheduler.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.ensure_future(self.scheduler.run())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.scheduler.request_stop()
        if self._scheduler_task is not None:
            await self._scheduler_task

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        method = path = None
        try:
            method, path, body = await self._read_request(reader)
            self.scheduler.registry.counter("service.http.requests").inc()
            await self._dispatch(writer, method, path, body)
        except _HttpError as error:
            if error.status >= 500:
                self.scheduler.registry.counter("service.http.errors").inc()
            await self._send_json(writer, error.status, error.payload)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 — fault barrier per connection
            # The barrier keeps one bad handler from killing the accept
            # loop, but a swallowed exception is an invisible 500: count
            # it and say which request (and job) blew up.
            self.scheduler.registry.counter("service.http.errors").inc()
            _LOG.error(
                "request handler failed",
                method=method, path=path,
                job=_job_id_from_path(path) if path else None,
                error_type=type(error).__name__, error=str(error),
            )
            try:
                await self._send_json(
                    writer,
                    500,
                    {
                        "error": {
                            "type": type(error).__name__,
                            "status": 500,
                            "message": str(error),
                        }
                    },
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "bad_request", "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, "bad_request", f"malformed request line: {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad_request", "bad Content-Length") from None
        if content_length > _MAX_BODY_BYTES:
            raise _HttpError(400, "bad_request", "request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _dispatch(self, writer, method: str, path: str, body: bytes) -> None:
        split = urlsplit(path)
        query = {k: v[0] for k, v in parse_qs(split.query).items()}
        segments = [s for s in split.path.split("/") if s]
        if segments == ["metrics"] and method == "GET":
            return await self._get_metrics(writer)
        if segments == ["healthz"] and method == "GET":
            return await self._send_json(writer, 200, {"ok": True})
        if segments == ["readyz"] and method == "GET":
            verdict = self.scheduler.readiness()
            return await self._send_json(
                writer, 200 if verdict["ready"] else 503, verdict
            )
        if segments[:2] == ["v1", "jobs"]:
            if len(segments) == 2:
                if method == "POST":
                    return await self._post_job(writer, body)
                if method == "GET":
                    return await self._list_jobs(writer, query.get("tenant"))
                raise _HttpError(405, "method_not_allowed", f"{method} {split.path}")
            job_id = segments[2]
            if len(segments) == 3:
                if method == "GET":
                    return await self._get_job(writer, job_id)
                if method == "DELETE":
                    return await self._cancel_job(writer, job_id)
                raise _HttpError(405, "method_not_allowed", f"{method} {split.path}")
            if len(segments) == 4 and method == "GET":
                if segments[3] == "events":
                    return await self._stream_events(writer, job_id)
                if segments[3] == "result":
                    return await self._get_result(writer, job_id)
                if segments[3] == "trace":
                    return await self._get_trace(writer, job_id)
        elif (
            segments[:2] == ["v1", "tenants"]
            and len(segments) == 4
            and segments[3] == "usage"
            and method == "GET"
        ):
            return await self._send_json(
                writer, 200, self.scheduler.usage(segments[2])
            )
        raise _HttpError(404, "not_found", f"no route for {method} {split.path}")

    # -- routes ----------------------------------------------------------------

    async def _post_job(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
            spec = JobSpec.from_dict(payload)
        except (ValueError, KeyError, TypeError) as error:
            raise _HttpError(400, "bad_spec", str(error)) from None
        try:
            receipt = self.scheduler.submit(spec, origin="server")
        except QuotaExceeded as error:
            await self._send_json(writer, error.status, error.to_dict())
            return
        await self._send_json(writer, 200, receipt)

    async def _get_metrics(self, writer) -> None:
        registry = self.scheduler.registry
        text = encode_exposition(registry.values(), registry.kinds())
        await self._send_raw(
            writer, 200, "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    async def _get_trace(self, writer, job_id: str) -> None:
        record = self._job_record(job_id)  # 404 before the folding work
        del record
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, fleet_trace, job_id, self.scheduler.store
        )
        await self._send_json(writer, 200, payload)

    def _job_record(self, job_id: str):
        try:
            return self.scheduler.store.job(job_id)
        except KeyError:
            raise _HttpError(404, "unknown_job", f"unknown job {job_id!r}") from None

    async def _get_job(self, writer, job_id: str) -> None:
        await self._send_json(writer, 200, self._job_record(job_id).to_dict())

    async def _list_jobs(self, writer, tenant: str | None) -> None:
        records = self.scheduler.store.jobs(tenant)
        await self._send_json(
            writer, 200, {"jobs": [record.to_dict() for record in records]}
        )

    async def _cancel_job(self, writer, job_id: str) -> None:
        self._job_record(job_id)
        record = self.scheduler.cancel(job_id)
        await self._send_json(writer, 200, record.to_dict())

    async def _get_result(self, writer, job_id: str) -> None:
        record = self._job_record(job_id)
        if record.state != "done":
            raise _HttpError(
                409,
                "result_not_ready",
                f"job {job_id} is {record.state}, not done",
            )
        data = self.scheduler.store.result_path(job_id).read_bytes()
        await self._send_raw(writer, 200, "application/json", data)

    async def _stream_events(self, writer, job_id: str) -> None:
        """Chunked NDJSON: job journal + sweep manifest, until terminal.

        Each line is one event tagged with its source.  The stream ends
        after the job reaches a terminal state *and* both journals have
        drained dry — the final drains run after the state check, so the
        terminal event itself (and the manifest lines appended just
        before it) are never dropped.
        """
        record = self._job_record(job_id)
        store = self.scheduler.store
        job_tail = ManifestTail(store.journal_path(job_id))
        manifest_tail = ManifestTail(
            manifest_path(default_cache().root, record.spec.sweep_key)
        )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        poll = self.scheduler.policy.poll_interval_seconds

        async def emit(source: str, events: list[dict]) -> None:
            for event in events:
                record = dict(event)
                # Manifest lines carry their own "source" (a worker or an
                # in-process degraded run); keep it as "origin" so the
                # feed tag is unambiguous.
                if "source" in record:
                    record["origin"] = record.pop("source")
                record["source"] = source
                line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
                writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            if events:
                await writer.drain()

        while True:
            terminal = store.job(job_id).terminal
            await emit("job", job_tail.drain())
            await emit("manifest", manifest_tail.drain())
            if terminal:
                # One final pass: anything appended between the drains
                # above and the terminal flag we already observed.
                await emit("job", job_tail.drain())
                await emit("manifest", manifest_tail.drain())
                break
            await asyncio.sleep(poll)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- response helpers ------------------------------------------------------

    async def _send_raw(
        self, writer, status: int, content_type: str, data: bytes
    ) -> None:
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    async def _send_json(self, writer, status: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_raw(writer, status, "application/json", data)


@dataclass
class ServiceHandle:
    """A server running in a daemon thread (tests, smoke, bench)."""

    server: ServiceServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 10.0) -> None:
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
        future.result(timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)


def serve_in_thread(
    scheduler: ServiceScheduler | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServiceHandle:
    """Start a full service (scheduler + HTTP) in a background thread."""
    scheduler = scheduler or ServiceScheduler()
    server = ServiceServer(scheduler, host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                await server.start()
            except BaseException as error:  # noqa: BLE001 — reported to starter
                failure.append(error)
                raise
            finally:
                started.set()

        try:
            loop.run_until_complete(_start())
            loop.run_forever()
        except BaseException:
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("service did not start within 30s")
    if failure:
        raise RuntimeError(f"service failed to start: {failure[0]}")
    return ServiceHandle(server=server, thread=thread, loop=loop)
