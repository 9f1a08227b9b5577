"""Worker transports: same-process inline and forked subprocess.

Both transports speak the :mod:`repro.gateway.worker` protocol and
present the same handle surface to the coordinator:

* :meth:`submit_tick` — enqueue one tenant-second for this partition.
  Bounded: with the default ``"block"`` policy the caller waits for
  queue space (lossless backpressure, fully deterministic); with
  ``"shed"`` the *oldest queued* tick is dropped instead and returned
  to the caller so the fan-in barrier can stop waiting for it.
* :meth:`next_snapshot` — the next ``op: snapshot`` reply, in submit
  order (FIFO), or ``None`` once the worker is dead.
* :meth:`call` — a control round-trip (``state``/``restore``/``ping``/
  ``stop``); control messages are never shed.
* :meth:`alive` / :meth:`kill` — liveness probe and hard kill (the
  degraded-mode test hook).

:class:`InlineWorkerHandle` runs the worker core synchronously in the
gateway process — zero concurrency, bit-identical to the process
transport, and what the determinism tests and benches use.
:class:`ProcessWorkerHandle` forks a child and pumps the pipe from two
daemon threads (sender drains the bounded queue, receiver buffers
replies). A dead child (EOF/broken pipe/kill) flips the handle dead and
wakes every waiter; it never raises into the tick path — the
coordinator degrades instead.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.gateway.tenants import TenantSpec
from repro.gateway.worker import PartitionWorkerCore, worker_main

#: (tenant_id, second) of a tick that was load-shed before processing.
ShedTick = Tuple[str, int]

SHED_POLICIES = ("block", "shed")
DEFAULT_QUEUE_DEPTH = 64


class GatewayWorkerError(RuntimeError):
    """A worker failed a control round-trip (died or replied ``error``)."""


class InlineWorkerHandle:
    """Synchronous in-process worker (determinism baseline, tests, bench)."""

    transport = "inline"

    def __init__(
        self,
        index: int,
        specs: Sequence[TenantSpec],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        shed_policy: str = "block",
        observability: bool = False,
    ) -> None:
        self.index = index
        # Inline cores share the gateway's process registry, so the
        # core must not claim private-registry attribution.
        self._core = PartitionWorkerCore(
            index, specs, observability=observability, private_registry=False
        )
        self._replies: Deque[dict] = deque()
        self._dead = False

    def start_io(self) -> None:
        """No IO threads to start inline."""

    def pending_depth(self) -> int:
        """Inline ticks run synchronously; nothing ever queues."""
        return 0

    def submit_tick(self, message: dict) -> List[ShedTick]:
        if self._dead:
            return [(str(message["tenant"]), int(message["second"]))]
        self._replies.append(self._core.handle(message))
        return []

    def next_snapshot(self, timeout: Optional[float] = None) -> Optional[dict]:
        while self._replies:
            reply = self._replies.popleft()
            if reply.get("op") == "snapshot":
                return reply
        return None

    def call(self, message: dict, timeout: Optional[float] = None) -> dict:
        if self._dead:
            raise GatewayWorkerError(f"partition {self.index} worker is dead")
        reply = self._core.handle(message)
        if reply.get("op") == "error":
            raise GatewayWorkerError(str(reply.get("error")))
        return reply

    def alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        """Simulate a worker crash (drops buffered replies too)."""
        self._dead = True
        self._replies.clear()

    def close(self) -> None:
        self._dead = True
        self._core.close()


class ProcessWorkerHandle:
    """A forked worker child plus the sender/receiver pump threads.

    Construction only forks the child; :meth:`start_io` starts the pump
    threads. The split matters: the coordinator forks *all* partitions
    before any thread exists, so no child inherits a running thread's
    half-held state.
    """

    transport = "process"

    def __init__(
        self,
        index: int,
        specs: Sequence[TenantSpec],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        shed_policy: str = "block",
        observability: bool = False,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {shed_policy!r}"
            )
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "transport='process' needs the fork start method; "
                "use transport='inline' on this platform"
            ) from None
        self.index = index
        self.queue_depth = queue_depth
        self.shed_policy = shed_policy
        parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=worker_main,
            args=(
                child_conn,
                index,
                [spec.to_dict() for spec in specs],
                bool(observability),
            ),
            name=f"repro-gateway-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        self._pending: Deque[dict] = deque()
        self._send_cv = threading.Condition()
        self._replies: Deque[dict] = deque()
        self._recv_cv = threading.Condition()
        self._dead = False
        self._closed = False
        self._sender: Optional[threading.Thread] = None
        self._receiver: Optional[threading.Thread] = None

    def start_io(self) -> None:
        if self._sender is not None:
            return
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-gateway-send-{self.index}",
            daemon=True,
        )
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"repro-gateway-recv-{self.index}",
            daemon=True,
        )
        self._sender.start()
        self._receiver.start()

    # -- pump threads --------------------------------------------------
    def _send_loop(self) -> None:
        while True:
            with self._send_cv:
                while not self._pending and not self._closed and not self._dead:
                    self._send_cv.wait()
                if self._dead:
                    return
                if not self._pending:
                    return  # closed and drained
                message = self._pending.popleft()
                self._send_cv.notify_all()
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError, ValueError):
                self._mark_dead()
                return

    def _recv_loop(self) -> None:
        while True:
            try:
                reply = self._conn.recv()
            except (EOFError, OSError):
                self._mark_dead()
                return
            with self._recv_cv:
                self._replies.append(reply)
                self._recv_cv.notify_all()

    def _mark_dead(self) -> None:
        with self._send_cv:
            self._dead = True
            self._send_cv.notify_all()
        with self._recv_cv:
            self._recv_cv.notify_all()

    # -- gateway-facing surface ----------------------------------------
    def pending_depth(self) -> int:
        """How many messages are queued toward the child right now."""
        with self._send_cv:
            return len(self._pending)

    def submit_tick(self, message: dict) -> List[ShedTick]:
        shed: List[ShedTick] = []
        with self._send_cv:
            if self._dead:
                return [(str(message["tenant"]), int(message["second"]))]
            if self.shed_policy == "block":
                while len(self._pending) >= self.queue_depth and not self._dead:
                    self._send_cv.wait(0.05)
                if self._dead:
                    return [(str(message["tenant"]), int(message["second"]))]
            else:
                while len(self._pending) >= self.queue_depth:
                    dropped = self._pending.popleft()
                    shed.append((str(dropped["tenant"]), int(dropped["second"])))
            self._pending.append(message)
            self._send_cv.notify_all()
        return shed

    def next_snapshot(self, timeout: Optional[float] = None) -> Optional[dict]:
        deadline = None if timeout is None else _monotonic() + timeout
        with self._recv_cv:
            while True:
                for position, reply in enumerate(self._replies):
                    op = reply.get("op")
                    if op == "snapshot":
                        del self._replies[position]
                        return reply
                    if op == "error":
                        del self._replies[position]
                        raise GatewayWorkerError(
                            f"partition {self.index}: {reply.get('error')}"
                        )
                if self._dead:
                    return None
                remaining = None if deadline is None else deadline - _monotonic()
                if remaining is not None and remaining <= 0:
                    raise GatewayWorkerError(
                        f"partition {self.index}: timed out waiting for a snapshot"
                    )
                self._recv_cv.wait(0.1 if remaining is None else min(remaining, 0.1))

    def call(self, message: dict, timeout: Optional[float] = None) -> dict:
        # Control messages bypass the shed policy (a dropped restore or
        # state op would silently corrupt a checkpoint) but keep FIFO
        # order behind any queued ticks.
        with self._send_cv:
            if self._dead:
                raise GatewayWorkerError(f"partition {self.index} worker is dead")
            self._pending.append(message)
            self._send_cv.notify_all()
        deadline = None if timeout is None else _monotonic() + timeout
        with self._recv_cv:
            while True:
                for position, reply in enumerate(self._replies):
                    op = reply.get("op")
                    if op == "snapshot":
                        continue  # leave tick replies for next_snapshot
                    del self._replies[position]
                    if op == "error":
                        raise GatewayWorkerError(
                            f"partition {self.index}: {reply.get('error')}"
                        )
                    return reply
                if self._dead:
                    raise GatewayWorkerError(
                        f"partition {self.index} worker died mid-call"
                    )
                remaining = None if deadline is None else deadline - _monotonic()
                if remaining is not None and remaining <= 0:
                    raise GatewayWorkerError(
                        f"partition {self.index}: control call timed out"
                    )
                self._recv_cv.wait(0.1 if remaining is None else min(remaining, 0.1))

    def alive(self) -> bool:
        return not self._dead and self._process.is_alive()

    def kill(self) -> None:
        """Hard-kill the child (SIGKILL); used by failure drills."""
        self._process.kill()
        self._process.join(timeout=5)
        self._mark_dead()

    def close(self) -> None:
        """Graceful shutdown: stop op, drain, reap the child.

        The pipe closes last. The receiver may still be about to call
        ``recv()``; closing the pipe under it kills the thread with a
        ``TypeError``. Once the child has exited, the receiver reads
        ``EOFError`` and returns, so it is joined before the close.
        """
        with self._send_cv:
            if not self._dead and not self._closed:
                self._pending.append({"op": "stop"})
            self._closed = True
            self._send_cv.notify_all()
        if self._sender is not None:
            self._sender.join(timeout=5)
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck child
            self._process.terminate()
            self._process.join(timeout=5)
        if self._receiver is not None:
            self._receiver.join(timeout=5)
        self._mark_dead()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _monotonic() -> float:
    import time

    return time.monotonic()


def make_worker_handles(
    specs: Sequence[TenantSpec],
    num_partitions: int,
    transport: str = "process",
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    shed_policy: str = "block",
    observability: bool = False,
) -> List[object]:
    """Build all partitions' handles (fork first, start IO threads after)."""
    if transport == "inline":
        return [
            InlineWorkerHandle(
                index, specs, queue_depth, shed_policy, observability
            )
            for index in range(num_partitions)
        ]
    if transport != "process":
        raise ValueError(
            f"transport must be 'inline' or 'process', got {transport!r}"
        )
    handles = [
        ProcessWorkerHandle(
            index, specs, queue_depth, shed_policy, observability
        )
        for index in range(num_partitions)
    ]
    for handle in handles:
        handle.start_io()
    return handles
