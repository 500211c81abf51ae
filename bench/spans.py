"""Spans recorded by the benchmark around its own calls into each layer.

Nothing inside the package is instrumented: a ``Tracer`` wraps the
public function a workload calls and keeps, per layer function, the
duration of every call and the number of calls that ended in an error.
Durations stay in memory until the run reports them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.durations = {}  # name -> list of ns
        self.errors = {}     # name -> count

    def wrap(self, name, fn, is_error=None):
        """``fn`` with a span around each call.

        A call is an error when it raises or, if given, when
        ``is_error(result)`` holds.
        """
        durations = self.durations.setdefault(name, [])
        self.errors.setdefault(name, 0)

        def traced(*args):
            start = perf_counter_ns()
            try:
                result = fn(*args)
            except Exception:
                durations.append(perf_counter_ns() - start)
                self.errors[name] += 1
                raise
            durations.append(perf_counter_ns() - start)
            if is_error is not None and is_error(result):
                self.errors[name] += 1
            return result

        return traced


def p50(values) -> float:
    return float(statistics.median(values))


def p99(values):
    """Nearest-rank 99th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.99 * len(ordered))
    return float(ordered[rank - 1]), len(ordered) - rank
