"""Closed-loop op runner and the statistics computed from its samples.

One client runs one op at a time.  An op that raises is a failed op: its
class (or the exit code of a child process) is counted, its latency counts
as +inf, and the loop goes on.  An op that returns is checked against its
oracle outside the timed interval; a mismatch makes the run incorrect but
does not stop it.

Shared hosts have contention phases lasting seconds to minutes, in which
every op runs up to 1.7 times as slowly.  ``fastest_windows`` therefore cuts the
timed phase into consecutive windows of a fixed number of ops and pools a
fixed number of the fastest windows for the reported statistics, so the
sample count, and with it the tail percentile, is the same in every run.  A
slower program is slower in every window, so the filter removes episodes,
not regressions.
"""

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from oracles import OracleMismatch

# Fixed percentile ladder for the tail: the highest rung with at least
# TAIL_MIN_BEYOND samples above it is reported.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10


class OpFailed(Exception):
    """An op ended without a result; the message is its failure class, e.g. "exit 1"."""


def failure_class(exc: BaseException) -> str:
    return str(exc) if isinstance(exc, OpFailed) else type(exc).__name__


@dataclass
class Tally:
    durations: list = field(default_factory=list)  # seconds, failed ops included
    ok: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)

    def add(self, duration: float, label=None, failure: str | None = None) -> None:
        self.durations.append(duration)
        self.ok.append(failure is None)
        self.labels.append(label)
        if failure is not None:
            self.failures[failure] += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def latencies(self) -> list:
        """Op latencies with +inf for a failed op, which misses every limit."""
        return [d if ok else math.inf for d, ok in zip(self.durations, self.ok)]

    @property
    def goodput(self) -> float:
        """Successful ops per second of op time; a failed op adds time but no work."""
        busy = self.busy_s
        return sum(self.ok) / busy if busy > 0.0 else 0.0

    def by_label(self) -> dict:
        out = defaultdict(list)
        for d, ok, label in zip(self.durations, self.ok, self.labels):
            if ok:
                out[label].append(d)
        return out


def run_ops(op, check, items, tally: Tally, stop, label=None, untimed=None) -> None:
    """Run ``op`` on each item until ``stop(tally)`` holds or the items run out.

    ``check(item, result)`` and ``untimed(item)`` run outside the timed interval.
    """
    for item in items:
        if stop(tally):
            return
        tag = label(item) if label is not None else None
        start = time.perf_counter()
        try:
            result = op(item)
        except Exception as exc:  # a failed op is counted, never fatal
            tally.add(time.perf_counter() - start, tag, failure_class(exc))
        else:
            tally.add(time.perf_counter() - start, tag)
            try:
                check(item, result)
            except OracleMismatch as exc:
                tally.mismatches.append(str(exc))
        if untimed is not None:
            untimed(item)


def fastest_windows(tally: Tally, window_ops: int, keep: int) -> tuple[Tally, int]:
    """Pool the ``keep`` fastest windows of each label; returns (pooled tally, windows).

    Windows are ``window_ops`` consecutive ops of one label, ranked by their
    summed time; a trailing partial window is dropped unless it is the only one.
    """
    ops = defaultdict(list)
    for i, label in enumerate(tally.labels):
        ops[label].append(i)
    pooled = Tally()
    total = 0
    for indices in ops.values():
        windows = [indices[k:k + window_ops] for k in range(0, len(indices), window_ops)]
        if len(windows) > 1 and len(windows[-1]) < window_ops:
            windows.pop()
        total += len(windows)
        windows.sort(key=lambda w: sum(tally.durations[i] for i in w))
        for window in windows[:keep]:
            for i in window:
                pooled.add(tally.durations[i], tally.labels[i], None if tally.ok[i] else "failed")
    return pooled, total


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest ladder rung with enough samples beyond.

    With fewer than 2 * TAIL_MIN_BEYOND samples no rung qualifies and the
    median is returned with its true count beyond.
    """
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            chosen = pct
    return percentile(values, chosen), chosen, n - math.ceil(chosen / 100.0 * n)
