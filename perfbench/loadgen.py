"""Closed-loop and paced (open-loop) request generators for the served workloads.

One generator thread submits wire containers with ``submit_bytes``.
Completion callbacks only stamp the time and hand the future back; the
generator thread checks every response against its reference between
submissions, so no checking runs on the server's own threads.

A paced request's latency runs from when it was *due*, not from when it was
sent: a generator that falls behind charges its lateness to the requests it
delays, and reports how late it ran (``lag``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

#: Time a check may take: the paced generator only checks a response while
#: the next request is due later than this.
CHECK_MARGIN_S = 0.002


@dataclass
class Outcome:
    """One request: when it was due, sent, accepted and answered, and how."""

    index: int
    due: float
    sent: float = 0.0
    submitted: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str | None = None

    @property
    def latency_s(self):
        return self.done - self.due


@dataclass
class PhaseResult:
    """The outcomes of one phase and its length, first send to last answer."""

    outcomes: list
    elapsed_s: float = 0.0

    @classmethod
    def combine(cls, phases):
        """One result for several phases: outcomes pooled, lengths added."""
        return cls([o for phase in phases for o in phase.outcomes],
                   sum(phase.elapsed_s for phase in phases))

    @property
    def ok(self):
        return [outcome for outcome in self.outcomes if outcome.ok]

    def throughput(self):
        """Correct responses per second of phase time."""
        return len(self.ok) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latencies_ms(self):
        return [outcome.latency_s * 1e3 for outcome in self.ok]

    def lags_ms(self):
        return [(outcome.sent - outcome.due) * 1e3 for outcome in self.outcomes]


def poisson_offsets(rng, rate, count):
    """Arrival offsets (s) of ``count`` Poisson arrivals at ``rate``/s, first at 0."""
    gaps = rng.exponential(1.0 / rate, size=count)
    return np.concatenate([[0.0], np.cumsum(gaps[:-1])]) if count else np.zeros(0)


class LoadGenerator:
    """Drives one server with pre-encoded containers and checks each answer.

    ``references[i]`` checks the answer to ``blobs[i]``.  ``deadline`` is
    the ``perf_counter`` time after which unanswered requests count as
    timed out.
    """

    def __init__(self, server, kind, blobs, references, deadline):
        self._server = server
        self._kind = kind
        self._blobs = blobs
        self._references = references
        self._deadline = deadline
        self._answered = deque()
        self._wake = threading.Condition()
        self.tracer = None

    # ------------------------------------------------------------------ #
    def _on_done(self, outcome, release, pending):
        outcome.done = time.perf_counter()
        self._answered.append((outcome, pending))
        release()
        with self._wake:
            self._wake.notify()

    def _submit(self, outcome, release):
        outcome.sent = time.perf_counter()
        try:
            pending = self._server.submit_bytes(self._blobs[outcome.index], kind=self._kind)
        except Exception as error:  # noqa: BLE001 - a refused request is a failure
            outcome.submitted = outcome.done = time.perf_counter()
            outcome.error = type(error).__name__
            release()
            return False
        outcome.submitted = time.perf_counter()
        pending.add_done_callback(partial(self._on_done, outcome, release))
        return True

    def _check_one(self):
        outcome, pending = self._answered.popleft()
        if outcome.error is not None:  # answered after its phase counted it timed out
            return
        try:
            image = pending.result(timeout=0).image
        except Exception as error:  # noqa: BLE001 - the server's error is the outcome
            outcome.error = type(error).__name__
        else:
            outcome.ok = self._references[outcome.index].matches(image)
            if not outcome.ok:
                outcome.error = "mismatch"
        if self.tracer is not None:
            sid = self.tracer.record("serve.request", outcome.due, outcome.done,
                                     rid=outcome.index)
            self.tracer.record("serve.submit", outcome.sent, outcome.submitted,
                               rid=outcome.index, parent=sid)

    def _settle(self, outstanding):
        """Check answers until ``outstanding`` futures are all answered or time runs out."""
        while outstanding:
            while self._answered:
                self._check_one()
                outstanding -= 1
            if not outstanding:
                return
            remaining = self._deadline - time.perf_counter()
            if remaining <= 0:
                return
            with self._wake:
                if not self._answered:
                    self._wake.wait(timeout=min(remaining, 0.05))

    def _finish(self, outcomes, accepted):
        self._settle(accepted)
        for outcome in outcomes:
            if not outcome.done and outcome.error is None:
                outcome.error = "timeout"
        answered = [outcome.done for outcome in outcomes if outcome.done]
        elapsed = max(answered) - min(o.sent for o in outcomes) if answered else 0.0
        return PhaseResult(outcomes, elapsed)

    # ------------------------------------------------------------------ #
    def closed(self, indices, outstanding):
        """Keep ``outstanding`` requests in flight until every index was sent."""
        slots = threading.Semaphore(outstanding)
        outcomes, accepted, checked = [], 0, 0
        for index in indices:
            if not slots.acquire(timeout=max(self._deadline - time.perf_counter(), 0.0)):
                break
            outcome = Outcome(index, due=time.perf_counter())
            outcomes.append(outcome)
            accepted += self._submit(outcome, slots.release)
            while self._answered:
                self._check_one()
                checked += 1
        return self._finish(outcomes, accepted - checked)

    def paced(self, indices, offsets):
        """Send request ``indices[i]`` at ``offsets[i]`` seconds from now."""
        start = time.perf_counter() + 0.01
        outcomes, accepted, checked = [], 0, 0
        for index, offset in zip(indices, offsets):
            due = start + float(offset)
            while self._answered and due - time.perf_counter() > CHECK_MARGIN_S:
                self._check_one()
                checked += 1
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(index, due=due)
            outcomes.append(outcome)
            accepted += self._submit(outcome, lambda: None)
        return self._finish(outcomes, accepted - checked)
