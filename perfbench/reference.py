"""A fixed reference task that tracks the host's speed.

The host's speed drifts by up to 1.5x for seconds to minutes at a time,
because of load outside the container.  A timed pass therefore times this
task before its job, between its steps and after it, and rescales each step
to a host on which the task takes REF_S, using the reference times on both
sides of the step.  The task mimics the package's subset engines (image
tables and a breadth-first search over the subsets of a fixed random
automaton), so it slows down with the host as they do; it never changes
with the package, so the rescaled times still show every change in the
package's speed.  Jobs that keep several CPUs busy (the searches) time the
task on as many CPUs at once, in helper processes.
"""

from __future__ import annotations

import multiprocessing
import random
import statistics
import time
from collections import deque

REF_STATES = 13
REF_REPEATS = 5
REF_S = 0.0025


def _reference_task() -> int:
    rng = random.Random(REF_STATES)
    rows = [[rng.randrange(REF_STATES) for _ in range(2)] for _ in range(REF_STATES)]
    size = 1 << REF_STATES
    images = []
    for s in range(2):
        bit = [1 << rows[q][s] for q in range(REF_STATES)]
        img = [0] * size
        for v in range(1, size):
            low = v & (v - 1)
            img[v] = img[low] | bit[(v ^ low).bit_length() - 1]
        images.append(img)
    dist = [-1] * size
    dist[size - 1] = 0
    queue = deque([size - 1])
    while queue:
        v = queue.popleft()
        for img in images:
            w = img[v]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return sum(d >= 0 for d in dist)


def reference_seconds() -> float:
    """Median time of the reference task over REF_REPEATS runs, in this process."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _helper(conn) -> None:
    while conn.recv():
        conn.send(reference_seconds())
    conn.close()


class Reference:
    """Times the reference task on `cpus` CPUs at once; the mean counts.

    With more than one CPU the task runs in forked helper processes that
    wait on a pipe between measurements, so they use no CPU during the job
    and start no thread in this process.  Close it to stop and reap them.
    """

    def __init__(self, cpus: int):
        self._conns = []
        self._procs = []
        if cpus > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(cpus):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(child,), daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)

    def seconds(self) -> float:
        if not self._conns:
            return reference_seconds()
        for conn in self._conns:
            conn.send(True)
        return statistics.mean(conn.recv() for conn in self._conns)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join()
