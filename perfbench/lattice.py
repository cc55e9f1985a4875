"""Seeded, jittered capillary lattice used by the `lattice` workload.

A cubic lattice of capillaries filling a cube, with every node jittered by
a seeded fraction of the spacing, high pressure on the x = 0 face, low
pressure on the x = SIDE face, and dangling two-segment twigs hanging off
random interior nodes (dead ends for phase-3 pruning). The same seed gives
the same network, node for node.
"""

from __future__ import annotations

import numpy as np

from microvasc import VascularNetwork

UM = 1e-6
P_HIGH = 8000.0  # Pa, inlet face
P_LOW = 4000.0  # Pa, outlet face
SIDE = 0.5e-3  # m, edge of the cube the lattice fills
JITTER = 0.15  # largest move of an interior node on each axis, in spacings
TWIG_FRACTION = 0.05  # share of interior nodes carrying a dead-end twig


def make_lattice(seed: int, n_per_axis: int) -> VascularNetwork:
    """Capillary lattice with n_per_axis**3 nodes inside [0, SIDE]^3.

    Interior nodes move by up to JITTER times the spacing on each axis;
    face nodes keep their face coordinate so the two pressure faces stay
    planar. Radii are drawn from 2.5-4 um; about TWIG_FRACTION of the
    interior nodes carry a dead-end twig of two segments.
    """
    rng = np.random.default_rng(seed)
    n = int(n_per_axis)
    h = SIDE / (n - 1)
    net = VascularNetwork()
    ids = np.empty((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ijk = np.array([i, j, k])
                pos = ijk * h
                interior = (ijk > 0) & (ijk < n - 1)
                pos = pos + np.where(interior, rng.uniform(-JITTER, JITTER, 3) * h, 0.0)
                if i == 0:
                    node = net.new_node(pos, kind="boundary", boundary_pressure=P_HIGH)
                elif i == n - 1:
                    node = net.new_node(pos, kind="boundary", boundary_pressure=P_LOW)
                else:
                    node = net.new_node(pos)
                ids[i, j, k] = node.id
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, n - 1)
        hi[axis] = slice(1, n)
        for a, b in zip(ids[tuple(lo)].ravel(), ids[tuple(hi)].ravel()):
            if axis == 0 or not _on_pressure_face(net, a, b):
                net.new_segment(int(a), int(b), float(rng.uniform(2.5, 4.0)) * UM)
    interior = ids[1:-1, 1:-1, 1:-1].ravel()
    n_twigs = int(round(TWIG_FRACTION * interior.size))
    for nid in rng.choice(interior, size=n_twigs, replace=False):
        base = net.nodes[int(nid)].position
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        prev = int(nid)
        for step in (1, 2):
            tip = net.new_node(base + direction * (0.3 * h * step))
            net.new_segment(prev, tip.id, 2.5 * UM)
            prev = tip.id
    net.validate()
    return net


def _on_pressure_face(net: VascularNetwork, a: int, b: int) -> bool:
    """Both ends are Dirichlet nodes: a vessel lying in a pressure face."""
    return net.nodes[a].kind == "boundary" and net.nodes[b].kind == "boundary"
