"""Host-speed probe: a fixed pure-Python kernel timed between measured
windows, so that window times can be put on the reference host's scale.

The benchmark's host is shared: it flips between speed states a second
or two apart, and the program runs up to ≈ 1.5× slower in the slow one.
Each window's wall time is scaled by ``REFERENCE_PROBE_MS / p``, where
``p`` is the median probe time of the windows around it (the host's
speed at that moment). The probe never calls the program, so a change
to the program moves the normalised times as it moves the wall times at
fixed host speed. It cannot see a slowdown it never meets, such as the
VM being descheduled during a window or a contended second vCPU (see
perfbench/README.md, "Observed spread").

The kernel has two halves, because the host's slow states do not slow
all code alike: a memory-bound half (attribute updates on slotted
objects chained at random through a 60 000-node graph, a few MB like
the server's entity tables, plus dict lookups) and a call-bound half
(method calls on 40 small objects, each updating a float and a small
dict). Either half alone tracked the program worse across host states. It runs with the cyclic GC off, so a
collection the program's allocations made due never lands in it.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: Median probe time after a window on the reference host (2-vCPU VM,
#: Python 3.11) in its fast state; the window leaves the probe's data
#: out of cache, so this is well above a back-to-back pass. Normalised
#: times read as wall ms on that host in that state.
REFERENCE_PROBE_MS = 1.40
#: Probes on either side of a window that set its host speed: about a
#: second of host time, shorter than the host's speed states.
REACH = 7


class _Node:
    __slots__ = ("x", "y", "n", "next")

    def __init__(self, x: float) -> None:
        self.x = x
        self.y = 0.0
        self.n = 0
        self.next: _Node | None = None


class _Agent:
    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.seen: dict[int, int] = {}

    def step(self, value: float) -> None:
        self.count += 1
        self.total += value * 0.5
        key = self.count & 15
        self.seen[key] = self.seen.get(key, 0) + 1


class HostProbe:
    """The kernel's data, built once; ``measure()`` times one pass."""

    def __init__(self, nodes: int = 60_000, steps: int = 1_500, seed: int = 5) -> None:
        self._nodes = [_Node(float(i)) for i in range(nodes)]
        order = list(range(nodes))
        random.Random(seed).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self._nodes[a].next = self._nodes[b]
        self._index = {i: self._nodes[i] for i in range(0, nodes, 3)}
        self._head = self._nodes[0]
        self._steps = steps
        self._size = nodes
        self._agents = [_Agent() for _ in range(40)]

    def measure(self) -> float:
        """Wall ms of one pass over ``steps`` nodes and 60 rounds of agent
        steps, GC off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = perf_counter()
            node, index, size = self._head, self._index, self._size
            for i in range(self._steps):
                node = node.next
                node.n += 1
                node.y = node.x * 0.5 + node.y
                other = index.get((i * 7919) % size)
                if other is not None:
                    other.n -= 1
            self._head = node
            for round_ in range(60):
                for agent in self._agents:
                    agent.step(round_)
            return (perf_counter() - began) * 1e3
        finally:
            if enabled:
                gc.enable()


def scaled(value: float, probe_ms: list[float]) -> float:
    """A wall time on the reference host's scale, given the probes taken
    around it."""
    return value * REFERENCE_PROBE_MS / statistics.median(probe_ms)


def normalised(window_ms: list[float], probe_ms: list[float], reach: int = REACH) -> list[float]:
    """Each window's wall ms on the reference host's scale, from the
    median probe of the windows within ``reach`` of it. ``probe_ms[i]``
    is the probe taken right after window ``i``."""
    return [
        scaled(ms, probe_ms[max(0, i - reach) : i + reach + 1]) for i, ms in enumerate(window_ms)
    ]
