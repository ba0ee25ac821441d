"""The serving core: one event loop, one executor, graceful shutdown.

:class:`EngineServer` owns the whole network stack: it builds the
authenticator (and thereby the shared admission controller), obtains the
engine's long-lived :class:`~repro.engine.serving.AsyncExecutor` bound to
that controller, and runs ``asyncio.start_server`` on a **persistent
event loop in a daemon thread** — so synchronous callers (tests, the
bench harness, a notebook) can start a server, talk to it over real
sockets, and stop it, all without owning a loop themselves.

Shutdown is graceful by construction: ``stop()`` flips a loop-side event
that (1) stops accepting new connections, (2) lets every open connection
finish the request it is currently serving (one waiting for its next
request — idle, or part way through reading it — is cancelled and
closes without a response), and (3) drains the executor — requests
already admitted or queued still run to completion and their responses
are written before the loop exits.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Iterable, Optional, Set, Tuple

from repro.engine.executor import WARM_CACHE_BLOCKS
from repro.engine.server.auth import ApiKey, ApiKeyAuthenticator
from repro.engine.server.protocol import (STREAM_LIMIT, HTTPError,
                                          json_body, read_request,
                                          render_response)


class EngineServer:
    """An asyncio HTTP front-end for one :class:`QueryEngine`.

    Parameters
    ----------
    engine:
        The engine to serve.  The server uses the engine's persistent
        serving executor (``engine.serving_executor``): one scheduler
        and one set of tenant budgets for all HTTP traffic.  An embedded
        ``serve_async`` call runs its wave on an executor of its own —
        same scheduler code, separate queue and budgets — and shares
        only the :class:`~repro.engine.executor.ExecutionCore` (result
        cache, metrics, stores) with the server.
    keys:
        The :class:`ApiKey` credentials to accept.
    host / port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    max_concurrency:
        Worker-thread cap of the serving executor.
    warm_cache:
        Pre-touch every dataset's stores when the server starts, so the
        first requests are not all cold misses.
    idle_timeout:
        Seconds a keep-alive connection gets to deliver its next
        complete request before the server closes it.  None (the
        default) keeps the old behaviour: idle connections live until
        client close or shutdown.  A request already being processed is
        never interrupted — the deadline only covers the wait for the
        next request (which also bounds slow-written requests).
    """

    def __init__(self, engine, keys: Iterable[ApiKey],
                 host: str = "127.0.0.1", port: int = 0,
                 max_concurrency: int = 8,
                 warm_cache: bool = True,
                 idle_timeout: Optional[float] = None) -> None:
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive or None, got %r"
                             % (idle_timeout,))
        self._idle_timeout = idle_timeout
        self._engine = engine
        self.auth = ApiKeyAuthenticator(keys)
        self.executor = engine.serving_executor(
            admission=self.auth.admission,
            max_concurrency=max_concurrency)
        from repro.engine.server.app import EngineApp
        self.app = EngineApp(engine, self.auth, self.executor)
        self._host = host
        self._port = port
        self._warm_cache = warm_cache
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        #: The connections waiting for their next request: stop() cancels.
        self._reading: Set[asyncio.Task] = set()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._fault: Optional[Exception] = None
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — available once :meth:`start` returns."""
        if self._address is None:
            raise RuntimeError("the server is not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    def start(self) -> "EngineServer":
        """Bind, start serving, and return once the socket is listening."""
        if self.running:
            return self
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="engine-http-server", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # kept for stop() to raise to its caller
            self._fault = exc

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight requests, then return.

        A fault that killed the scheduler while the server ran (its
        requests were answered 500) re-raises here.
        """
        if not self.running:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not shut down within %.1fs"
                               % timeout)
        self._thread = None
        fault, self._fault = self._fault, None
        if fault is not None:
            raise RuntimeError("the server's scheduler failed") from fault

    def __enter__(self) -> "EngineServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # loop side
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            await self.executor.start()
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port,
                limit=STREAM_LIMIT)
            self._address = server.sockets[0].getsockname()[:2]
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        core = self.executor.core
        warm = None
        if self._warm_cache:
            warm = core.warm_stores(self._engine.catalog.datasets(),
                                    WARM_CACHE_BLOCKS)
            warm.__enter__()
        try:
            self._started.set()
            await self._stop_event.wait()
            # 1. refuse new connections;
            server.close()
            # 2. close the connections between requests, and let the
            #    others finish their current one;
            for task in self._reading:
                task.cancel()
            await server.wait_closed()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            # 3. drain whatever the scheduler still holds.
            await self.executor.stop()
        finally:
            if warm is not None:
                warm.__exit__(None, None, None)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while not self._stop_event.is_set():
                read_started = time.monotonic()
                # Until the next request is read nothing is half-served,
                # so stop() may cancel the connection.
                self._reading.add(task)
                try:
                    request = await asyncio.wait_for(read_request(reader),
                                                     self._idle_timeout)
                except asyncio.TimeoutError:
                    # The idle deadline expired with no complete request
                    # on the wire: close the socket cleanly.
                    break
                except HTTPError as exc:
                    # Malformed wire input: count it, answer it, close.
                    # The parser annotates the error with method/path
                    # once the request line parsed, so a refused body
                    # (413, 411, bad chunk) still lands under its real
                    # endpoint; the elapsed time is measured from the
                    # read start (it includes keep-alive idle wait,
                    # which is the connection's honest wall time).
                    # Stats first: a client must never read the error
                    # response before the refusal is visible in /stats.
                    endpoint = self.app.endpoint_label(
                        getattr(exc, "path", None))
                    body = json_body(exc.payload())
                    self._engine.stats.note_http(
                        endpoint, exc.status,
                        time.monotonic() - read_started, 0.0, len(body))
                    writer.write(render_response(exc.status, body,
                                                 keep_alive=False))
                    await writer.drain()
                    break
                finally:
                    self._reading.discard(task)
                if request is None:  # peer closed cleanly
                    break
                keep = await self.app.handle(request, writer)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
