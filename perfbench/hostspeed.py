"""Host speed gauge: a fixed piece of work timed between the passes.

On a shared host the speed a process gets drifts by a third or more
within a minute, and a whole run can land in a slow or a fast phase.
The gauge times the same work, which imports nothing from ``sigblock``,
before the first set-up and after every set-up and every pass. A pass's
time multiplied by the square root of ``REFERENCE_S`` over the mean
gauge time around it estimates the time the pass would take on the host
at reference speed; the benchmark reports the median of those, and the
same for set-ups. A change to the program changes the pass times but not
the gauge, so it shows in full.

The work mixes what the program spends its time on: interpreter-bound
dict, set and sort churn; many numpy calls on small arrays; single-
threaded matrix products; and an element-wise pass over an array larger
than the caches.
"""

from __future__ import annotations

import time

import numpy as np

# About the gauge time on the machine the reference figures were taken
# on: 2 vCPUs of an Intel Xeon VM, Python 3.11, numpy 2, one BLAS thread.
REFERENCE_S = 0.35
ROUNDS = 2
# The program's passes slow about half as much as the gauge when the host
# slows, so the scale is the square root of the gauge ratio. Over 90 runs
# on that machine (nine sets of ten seeds), exponents 0.5 to 0.6 gave the
# smallest worst-set spread of job_s, 8-9%, against 17% for 1 (full
# scaling) and for 0 (wall-clock time).
ELASTICITY = 0.5


def _work() -> float:
    rng = np.random.Generator(np.random.PCG64(12345))
    ranked = 0
    for _ in range(3):
        keys = rng.integers(0, 4096, size=20000).tolist()
        buckets: dict[int, list[int]] = {}
        for i, k in enumerate(keys):
            buckets.setdefault(k, []).append(i)
        found: set[int] = set()
        for k in keys[:6000]:
            found.update(buckets[k])
        ranked += len(sorted((-(i % 97) / 97.0, str(i)) for i in found))

    table = rng.standard_normal((4096, 64))
    q = rng.standard_normal(64)
    total = 0.0
    for i in range(2500):
        idx = np.fromiter(buckets.get(i % 4096, ()), dtype=np.int64) % 4096
        if idx.size:
            total += float(np.sum(table[idx] @ q))

    a = rng.standard_normal((3000, 64))
    w = table[:64] * 0.1
    for _ in range(20):
        a = np.tanh(a @ w)

    p = rng.standard_normal(1 << 20)
    m = 0.1 * p
    v = 0.001 * p * p
    p -= 0.001 * m / (np.sqrt(v) + 1e-8)
    return ranked + total + float(a.sum()) + float(p.sum())


class Gauge:
    """Gauge times in the order taken; ``factor`` turns them into a scale."""

    def __init__(self):
        self.times: list[float] = []

    def warm_up(self) -> None:
        """One untimed round: the first one also pays for numpy's set-up."""
        _work()

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _work()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def factor(self, before: int, after: int) -> float:
        """Scale to reference speed from two gauge times (by index)."""
        mean = (self.times[before] + self.times[after]) / 2
        return (REFERENCE_S / mean) ** ELASTICITY
