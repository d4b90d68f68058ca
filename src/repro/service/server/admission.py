"""Row-priced admission control: queue when fair, reject before melting.

Quotas (scheduler.py) protect tenants from each other; admission control
protects the *service* from its aggregate backlog.  Every submit is priced
in rows by :func:`job_cost` — the sum of the circuit's per-gate row bounds
(:mod:`repro.sql.bounds`), times the grid's points — and compared against
the cost already queued: under the ceiling the job is admitted into the
fair queue, over it the submit is rejected with a ``retry_after`` derived
from the observed service rate, so clients back off instead of piling onto
a melting server.  The ceiling bounds the *backlog*: a submit to an empty
queue is never cost-rejected, however large, since waiting would not make
it fit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...errors import QymeraError
from ...sql.bounds import circuit_row_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..jobs import JobRequest

#: Admission outcomes.
ADMIT = "admit"
REJECT = "reject"


class AdmissionRejected(QymeraError):
    """The service declined a submit; carries the client's backoff hint."""

    def __init__(self, message: str, retry_after: float = 1.0, reason: str = "overload") -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))
        self.reason = reason


@dataclass(frozen=True)
class AdmissionDecision:
    action: str
    cost: float
    reason: str = ""
    retry_after: float = 0.0
    #: How long pricing + the admit/reject decision took — rendered as the
    #: request's ``admission`` span by the tracing layer.
    elapsed_s: float = 0.0


def job_cost(request: "JobRequest") -> float:
    """A request's price in rows: its per-point work times its grid points.

    The per-point work is the sum of the circuit's per-gate row bounds
    (:func:`~repro.sql.bounds.circuit_row_bounds`), computed from gate kinds
    in O(gates), so an unbound grid template is priced without binding it.
    The statevector method touches all ``2**n`` amplitudes at every gate.
    """
    circuit = request.circuit
    if request.method == "statevector":
        per_point = circuit.size() << circuit.num_qubits
    else:
        per_point = sum(circuit_row_bounds(circuit))
    return float(max(1, per_point) * request.total_points)


class AdmissionController:
    """Decides admit-vs-reject per submit against the queued-cost ceiling.

    Parameters
    ----------
    max_queued_cost:
        Total rows (see :func:`job_cost`) allowed to wait in the fair
        queues; a submit that would push a non-empty backlog past this is
        rejected.  ``None`` disables cost-based rejection (quotas still
        apply).
    max_queued_jobs:
        Coarse job-count ceiling on the backlog, independent of cost.
    min_retry_after:
        Floor for the backoff hint returned with rejections.
    """

    def __init__(
        self,
        max_queued_cost: float | None = None,
        max_queued_jobs: int | None = None,
        min_retry_after: float = 0.25,
    ) -> None:
        if max_queued_cost is not None and max_queued_cost <= 0:
            raise QymeraError("max_queued_cost must be positive when given")
        if max_queued_jobs is not None and max_queued_jobs < 1:
            raise QymeraError("max_queued_jobs must be positive when given")
        self.max_queued_cost = max_queued_cost
        self.max_queued_jobs = max_queued_jobs
        self.min_retry_after = float(min_retry_after)
        self._lock = threading.Lock()
        self._admitted = 0
        self._rejected = 0
        self._served_cost = 0.0
        self._service_started = time.monotonic()

    def assess(self, request: "JobRequest", queued_cost: float, queued_jobs: int) -> AdmissionDecision:
        """Price the request and decide against the current backlog.

        The decision carries its own wall time (``elapsed_s``), which the
        tracing layer attributes to the request as an ``admission`` span.
        A submit to an empty queue is never cost-rejected: the ceiling
        bounds the backlog, and a job priced above it alone would otherwise
        be told to retry forever.
        """
        started = time.perf_counter()
        cost = job_cost(request)
        if self.max_queued_jobs is not None and queued_jobs >= self.max_queued_jobs:
            retry = self._retry_after(queued_cost)
            with self._lock:
                self._rejected += 1
            return AdmissionDecision(
                REJECT, cost, reason="queue full", retry_after=retry,
                elapsed_s=time.perf_counter() - started,
            )
        if (
            self.max_queued_cost is not None
            and queued_jobs > 0
            and queued_cost + cost > self.max_queued_cost
        ):
            retry = self._retry_after(queued_cost + cost - self.max_queued_cost)
            with self._lock:
                self._rejected += 1
            return AdmissionDecision(
                REJECT, cost, reason="cost ceiling", retry_after=retry,
                elapsed_s=time.perf_counter() - started,
            )
        with self._lock:
            self._admitted += 1
        return AdmissionDecision(ADMIT, cost, elapsed_s=time.perf_counter() - started)

    def observe_served(self, cost: float) -> None:
        """Record completed work so ``retry_after`` tracks real throughput."""
        with self._lock:
            self._served_cost += max(0.0, float(cost))

    def _retry_after(self, excess_cost: float) -> float:
        """Backoff hint: how long draining ``excess_cost`` should take.

        Uses the observed lifetime service rate (cost units per second); a
        cold controller falls back to the floor.
        """
        with self._lock:
            elapsed = max(1e-6, time.monotonic() - self._service_started)
            rate = self._served_cost / elapsed
        if rate <= 0:
            return max(self.min_retry_after, 1.0)
        return max(self.min_retry_after, excess_cost / rate)

    def stats(self) -> dict:
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "served_cost": round(self._served_cost, 6),
                "max_queued_cost": self.max_queued_cost,
                "max_queued_jobs": self.max_queued_jobs,
            }
