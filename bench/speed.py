"""Wall and CPU time scaled to a reference machine speed.

The shared host this benchmark was built on changes speed by up to 1.8x
from second to second and holds a slow or fast state for tens of seconds
(a fixed loop, measured with no steal time and an idle second vCPU).  Raw
pass times then spread by a third between runs.  So a fixed probe, which
touches no nullheat code, runs before every operation, and each stretch
of work between two probes is scaled by PROBE_REF_S / (mean of the two
probes): the time the work would take at the speed where the probe takes
PROBE_REF_S.  Probe time itself is never counted.
"""

import time

import numpy as np

PROBE_REF_S = 0.002  # about the probe's duration on the reference host when it runs fast

_W = np.ones(4)
_E = np.ones((4, 16))
_A = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0


def probe():
    """Seconds for a fixed mix of bytecode, small-array numpy calls and LAPACK."""
    start = time.perf_counter()
    for _ in range(300):
        np.einsum("q,qn,qn->n", _W, _E, _E)
    acc = 0
    for k in range(20000):
        acc += k * k
    np.linalg.eigvalsh(_A)
    return time.perf_counter() - start


class Clock:
    """Accumulates raw and speed-scaled wall and CPU time between `tick`s."""

    def __init__(self, tracer=None):
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self.probes = []
        self._open = None
        self._tracer = tracer

    def tick(self):
        wall, cpu = time.perf_counter(), time.process_time()
        # traced as a span of its own, so no layer's self time includes it
        span = self._tracer.begin("bench.probe") if self._tracer else None
        p = probe()
        if span:
            self._tracer.end(span)
        self.probes.append(p)
        if self._open is not None:
            p0, wall0, cpu0 = self._open
            scale = PROBE_REF_S / (0.5 * (p0 + p))
            self.raw_wall += wall - wall0
            self.raw_cpu += cpu - cpu0
            self.wall += (wall - wall0) * scale
            self.cpu += (cpu - cpu0) * scale
        self._open = (p, time.perf_counter(), time.process_time())


def scale_now(repeats=5):
    """PROBE_REF_S over the median of a few probes taken now."""
    probes = sorted(probe() for _ in range(repeats))
    return PROBE_REF_S / probes[repeats // 2]
