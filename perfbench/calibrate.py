"""Machine-speed probe: a fixed piece of work timed between operations.

On a shared host the same work can take up to twice as long when
neighbours load the machine, in phases lasting tens of seconds. The probe
does work of the kinds microvasc does and never changes with the program:
interpreter-bound loops over small numpy arrays, a scan over scattered
segment objects with a clamped segment distance for each (the shape of a
collision query), and a sparse LU factorization and solve. The ratio of an
operation's time to the probe's time around it cancels most of the host's
slow phases.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PROBE_GRID = 12  # cells per axis of the sparse system factorized
PROBE_LOOPS = 1500  # interpreter-bound loop iterations
PROBE_SEGMENTS = 6000  # scattered segment objects
PROBE_SCANNED = 400  # of them visited by the query-shaped scan


class _Segment:
    __slots__ = ("a", "b", "radius")

    def __init__(self, a, b, radius):
        self.a = a
        self.b = b
        self.radius = radius


class Probe:
    def __init__(self):
        n = PROBE_GRID
        side = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (
            sp.kron(sp.kron(side, eye), eye)
            + sp.kron(sp.kron(eye, side), eye)
            + sp.kron(sp.kron(eye, eye), side)
            + 0.01 * sp.identity(n**3)
        ).tocsc()
        self.rhs = np.ones(n**3)
        rng = np.random.default_rng(0)
        self.points = rng.uniform(size=(PROBE_LOOPS, 3))
        self.spacing = np.array([0.1, 0.1, 0.1])
        self.segments = {
            i: _Segment(rng.uniform(size=3), rng.uniform(size=3), 0.01) for i in range(PROBE_SEGMENTS)
        }
        self.scanned = {int(i) for i in rng.permutation(PROBE_SEGMENTS)[:PROBE_SCANNED]}
        self.query = (np.array([0.5, 0.5, 0.5]), np.array([0.6, 0.5, 0.4]))

    def _work(self) -> float:
        total = 0.0
        for point in self.points:
            cell = np.floor(point / self.spacing).astype(int)
            total += float(np.linalg.norm(point - cell * self.spacing))
        p0, p1 = self.query
        d1 = p1 - p0
        a = d1 @ d1
        for sid in self.scanned:
            seg = self.segments[sid]
            d2 = seg.b - seg.a
            r = p0 - seg.a
            e = d2 @ d2
            f = d2 @ r
            c = d1 @ r
            b = d1 @ d2
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 0 else 0.0
            t = np.clip((b * s + f) / e, 0.0, 1.0)
            total += float(np.linalg.norm(p0 + s * d1 - (seg.a + t * d2)) < seg.radius)
        return total + float(spla.splu(self.matrix).solve(self.rhs)[0])

    def __call__(self) -> float:
        """Seconds taken by one fixed unit of work."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
