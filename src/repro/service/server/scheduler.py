"""Tenant-aware fair scheduling: weighted deficit round-robin + quotas.

The JobService's default queue is the thread pool's FIFO: one tenant
flooding grid sweeps starves everyone behind it.  :class:`FairScheduler`
replaces that with one queue *per tenant* and a deficit round-robin (DRR)
dispatcher: each scheduling pass visits tenants in rotation, grants each a
``quantum`` of cost credit scaled by its weight, and dispatches a tenant's
head job only when its accumulated deficit covers the job's cost units.
Two backlogged tenants with equal weights therefore get ~equal *service*
(in cost units) regardless of their submit rates — the fairness property
the serving benchmark gates on.

Quotas guard the queue edges per tenant: ``max_queued`` bounds backlog,
``max_in_flight`` bounds concurrency (a capped tenant is skipped by the
dispatcher without accruing deficit), and an optional token bucket bounds
submit *rate* (capacity ``burst``, refill ``rate`` tokens/second).  Quota
violations raise :class:`QuotaExceeded` carrying a ``retry_after`` hint,
which the HTTP front end turns into ``429 Retry-After``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ...errors import QymeraError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..jobs import JobHandle


class QuotaExceeded(QymeraError):
    """A tenant quota rejected a submit; ``retry_after`` hints when to retry."""

    def __init__(self, message: str, retry_after: float = 1.0, reason: str = "quota") -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))
        self.reason = reason


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant scheduling configuration.

    ``weight`` scales the tenant's DRR credit (2.0 = twice the service of a
    weight-1.0 tenant under saturation).  ``None`` limits are unlimited.
    ``sample_rate`` is the tenant's head-based trace-sampling probability:
    the fraction of this tenant's requests that record full execution spans
    (errors and slow requests are always retained regardless — the rate
    only gates the happy path's tracing cost).
    """

    weight: float = 1.0
    max_in_flight: int | None = None
    max_queued: int | None = None
    rate: float | None = None
    burst: float | None = None
    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise QymeraError("tenant weight must be positive")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise QymeraError("max_in_flight must be positive when given")
        if self.max_queued is not None and self.max_queued < 1:
            raise QymeraError("max_queued must be positive when given")
        if self.rate is not None and self.rate <= 0:
            raise QymeraError("rate must be positive when given")
        if self.burst is not None and self.burst <= 0:
            raise QymeraError("burst must be positive when given")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise QymeraError("sample_rate must be between 0 and 1")


class TokenBucket:
    """A standard token bucket with an injectable clock (for edge tests).

    Starts full.  :meth:`try_take` returns 0.0 on success, otherwise the
    seconds until enough tokens will have refilled.
    """

    def __init__(self, rate: float, capacity: float, clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0 or capacity <= 0:
            raise QymeraError("token bucket rate and capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def try_take(self, tokens: float = 1.0) -> float:
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


class _TenantState:
    __slots__ = ("name", "quota", "queue", "deficit", "running", "bucket",
                 "admitted", "rejected", "dispatched", "served_cost", "queue_wait_s")

    def __init__(self, name: str, quota: TenantQuota, clock: Callable[[], float]) -> None:
        self.name = name
        self.quota = quota
        self.queue: list["JobHandle"] = []
        self.deficit = 0.0
        self.running = 0
        self.bucket = (
            TokenBucket(quota.rate, quota.burst if quota.burst is not None else max(quota.rate, 1.0) * 2, clock)
            if quota.rate is not None
            else None
        )
        self.admitted = 0
        self.rejected = 0
        self.dispatched = 0
        self.served_cost = 0.0
        #: Accumulated true queue wait (enqueue -> DRR pick) in seconds —
        #: the per-tenant attribution the tracing layer's queue-wait spans
        #: aggregate to.
        self.queue_wait_s = 0.0


class FairScheduler:
    """Deficit round-robin across per-tenant queues, with quota enforcement.

    Thread-safe; the JobService's dispatcher thread blocks in
    :meth:`next_job` while submitters call :meth:`submit` concurrently.
    """

    def __init__(
        self,
        quantum: float = 1.0,
        default_quota: TenantQuota | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if quantum <= 0:
            raise QymeraError("scheduler quantum must be positive")
        self.quantum = float(quantum)
        self.default_quota = default_quota if default_quota is not None else TenantQuota()
        self._clock = clock
        self._tenants: dict[str, _TenantState] = {}
        self._rotation: list[str] = []
        self._cursor = 0
        self._condition = threading.Condition()
        self._closed = False
        self._queued_cost = 0.0

    # -------------------------------------------------------- configuration

    def configure(self, tenant: str, quota: TenantQuota) -> None:
        """Set (or replace) one tenant's quota; queued work is kept."""
        with self._condition:
            state = self._tenants.get(tenant)
            if state is None:
                state = self._state_locked(tenant, quota)
            else:
                state.quota = quota
                state.bucket = (
                    TokenBucket(
                        quota.rate,
                        quota.burst if quota.burst is not None else max(quota.rate, 1.0) * 2,
                        self._clock,
                    )
                    if quota.rate is not None
                    else None
                )
            self._condition.notify_all()

    def _state_locked(self, tenant: str, quota: TenantQuota | None = None) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(tenant, quota if quota is not None else self.default_quota, self._clock)
            self._tenants[tenant] = state
            self._rotation.append(tenant)
        return state

    # ------------------------------------------------------------ submission

    def submit(self, handle: "JobHandle", cost: float = 1.0) -> None:
        """Enqueue one handle under its tenant, enforcing the tenant's quotas.

        Raises :class:`QuotaExceeded` on a full queue or an empty token
        bucket; the handle is not enqueued in that case.
        """
        tenant = handle.request.tenant
        with self._condition:
            if self._closed:
                raise QymeraError("the scheduler has been closed")
            state = self._state_locked(tenant)
            quota = state.quota
            if quota.max_queued is not None and len(state.queue) >= quota.max_queued:
                state.rejected += 1
                raise QuotaExceeded(
                    f"tenant {tenant!r} queue is full ({quota.max_queued} jobs)",
                    retry_after=1.0,
                    reason="max_queued",
                )
            if state.bucket is not None:
                wait = state.bucket.try_take()
                if wait > 0.0:
                    state.rejected += 1
                    raise QuotaExceeded(
                        f"tenant {tenant!r} exceeded its submit rate ({quota.rate}/s)",
                        retry_after=wait,
                        reason="rate",
                    )
            handle._cost_units = max(0.0, float(cost)) or 1.0
            # Queue-wait ground truth: perf_counter at enqueue, read back at
            # DRR pick — the tracing layer renders the difference as the
            # request's ``queue_wait`` span instead of inferring it from
            # end-to-end latency.
            handle._enqueued_pc = time.perf_counter()
            state.queue.append(handle)
            state.admitted += 1
            self._queued_cost += handle._cost_units
            self._condition.notify_all()

    # ------------------------------------------------------------ dispatching

    def next_job(self, timeout: float | None = None) -> "JobHandle | None":
        """Block for the next fairly-chosen job; ``None`` on timeout or close.

        The returned handle is counted against its tenant's ``running``
        until :meth:`on_finish` is called for it.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._condition:
            while True:
                handle = self._pick_locked()
                if handle is not None:
                    return handle
                if self._closed:
                    return None
                if deadline is None:
                    self._condition.wait()
                else:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not self._condition.wait(timeout=remaining):
                        if self._pick_locked_available():
                            continue
                        return None

    def _pick_locked_available(self) -> bool:
        return any(
            state.queue
            and (state.quota.max_in_flight is None or state.running < state.quota.max_in_flight)
            for state in self._tenants.values()
        )

    def _eligible_locked(self) -> list[str]:
        return [
            name
            for name in self._rotation
            if self._tenants[name].queue
            and (
                self._tenants[name].quota.max_in_flight is None
                or self._tenants[name].running < self._tenants[name].quota.max_in_flight
            )
        ]

    def _pick_locked(self) -> "JobHandle | None":
        """Dispatch the head the DRR passes would fund first, with their credits.

        Deficits only accrue for *eligible* tenants (backlogged and under
        their in-flight cap), and reset when a tenant's queue drains — an
        idle tenant cannot hoard credit and then monopolize the pool.
        """
        eligible = set(self._eligible_locked())
        if not eligible:
            return None
        # The passes are computed, not run: a job costs as many rows as it
        # may produce, so it can take thousands of quantum-sized passes.
        # Visiting the rotation from the cursor, each eligible tenant needs
        # ``passes`` credits to fund its head; the first tenant needing the
        # fewest wins, tenants visited before it in the last pass get that
        # many credits and the ones after it one fewer.
        size = len(self._rotation)
        order = [self._rotation[(self._cursor + offset) % size] for offset in range(size)]
        needed: dict[str, int] = {}
        for name in order:
            if name in eligible:
                state = self._tenants[name]
                shortfall = state.queue[0]._cost_units - state.deficit
                needed[name] = max(1, math.ceil(shortfall / (self.quantum * state.quota.weight)))
        passes, last = min((count, order.index(name)) for name, count in needed.items())
        for position, name in enumerate(order):
            if name in needed:
                state = self._tenants[name]
                credits = passes if position <= last else passes - 1
                state.deficit += credits * self.quantum * state.quota.weight
        state = self._tenants[order[last]]
        state.deficit -= state.queue[0]._cost_units
        self._cursor = (self._cursor + last + 1) % size
        return self._dequeue_head_locked(state, passes)

    def _dequeue_head_locked(self, state: _TenantState, drr_rounds: int) -> "JobHandle":
        """Pop a funded head, attributing queue wait and DRR rounds to it."""
        head = state.queue.pop(0)
        if not state.queue:
            state.deficit = 0.0
        state.running += 1
        state.dispatched += 1
        state.served_cost += head._cost_units
        self._queued_cost = max(0.0, self._queued_cost - head._cost_units)
        enqueued = getattr(head, "_enqueued_pc", None)
        if enqueued is not None:
            state.queue_wait_s += max(0.0, time.perf_counter() - enqueued)
        head._drr_rounds = drr_rounds
        return head

    def on_finish(self, handle: "JobHandle") -> None:
        """A dispatched job reached a terminal state; frees its in-flight slot."""
        tenant = handle.request.tenant
        with self._condition:
            state = self._tenants.get(tenant)
            if state is not None and state.running > 0:
                state.running -= 1
            self._condition.notify_all()

    # --------------------------------------------------------------- removal

    def remove(self, handle: "JobHandle") -> bool:
        """Drop a still-queued handle (cancellation); True when it was queued."""
        tenant = handle.request.tenant
        with self._condition:
            state = self._tenants.get(tenant)
            if state is None:
                return False
            try:
                state.queue.remove(handle)
            except ValueError:
                return False
            self._queued_cost = max(0.0, self._queued_cost - handle._cost_units)
            if not state.queue:
                state.deficit = 0.0
            self._condition.notify_all()
            return True

    def drain(self) -> list["JobHandle"]:
        """Pop every queued handle (shutdown path: caller cancels them)."""
        with self._condition:
            drained: list["JobHandle"] = []
            for state in self._tenants.values():
                drained.extend(state.queue)
                state.queue.clear()
                state.deficit = 0.0
            self._queued_cost = 0.0
            self._condition.notify_all()
            return drained

    def close(self) -> None:
        """Wake blocked dispatchers; subsequent submits raise."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    # --------------------------------------------------------------- queries

    def queued_cost(self) -> float:
        """Total cost units waiting across all tenants (admission's backlog)."""
        with self._condition:
            return self._queued_cost

    def queued_jobs(self) -> int:
        with self._condition:
            return sum(len(state.queue) for state in self._tenants.values())

    def sample_rate(self, tenant: str) -> float:
        """The head-based trace-sampling rate configured for ``tenant``.

        Tenants without an explicit quota inherit the default quota's rate;
        this is what the HTTP ingress consults when minting a fresh
        :class:`~repro.obs.TraceContext` for an untraced inbound request.
        """
        with self._condition:
            state = self._tenants.get(tenant)
            quota = state.quota if state is not None else self.default_quota
            return quota.sample_rate

    def snapshot(self) -> dict:
        """Per-tenant scheduling state for ``/v1/stats`` and reports."""
        with self._condition:
            tenants = {
                name: {
                    "queued": len(state.queue),
                    "running": state.running,
                    "weight": state.quota.weight,
                    "deficit": round(state.deficit, 6),
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "dispatched": state.dispatched,
                    "served_cost": round(state.served_cost, 6),
                    "queue_wait_s": round(state.queue_wait_s, 6),
                    "sample_rate": state.quota.sample_rate,
                    "tokens": round(state.bucket.tokens, 6) if state.bucket is not None else None,
                }
                for name, state in self._tenants.items()
            }
            return {
                "policy": "deficit-round-robin",
                "quantum": self.quantum,
                "queued_cost": round(self._queued_cost, 6),
                "tenants": tenants,
            }
