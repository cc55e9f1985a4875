"""Shared network/grid fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from microvasc import (
    DomainBox,
    NetworkNode,
    VascularNetwork,
    build_grid,
    enlarge_domain,
)

UM = 1e-6

# Property tests draw fixed examples under CI (GitHub Actions sets CI), so a
# failure there reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_single_vessel(
    p_in=8000.0,
    p_out=4000.0,
    radius=5 * UM,
    start=(0.0, 0.0, 0.0),
    end=(100 * UM, 0.0, 0.0),
):
    net = VascularNetwork()
    net.add_node(NetworkNode(0, np.array(start, float), "boundary", p_in))
    net.add_node(NetworkNode(1, np.array(end, float), "boundary", p_out))
    net.new_segment(0, 1, radius)
    return net


def make_y_junction():
    """Three-radius Y with one interior junction; matches the frozen oracle."""
    net = VascularNetwork()
    net.add_node(NetworkNode(0, np.array([0.0, 0.0, 0.0]), "boundary", 8000.0))
    net.add_node(NetworkNode(1, np.array([100 * UM, 0.0, 0.0])))
    net.add_node(NetworkNode(2, np.array([200 * UM, 80 * UM, 0.0]), "boundary", 4500.0))
    net.add_node(NetworkNode(3, np.array([200 * UM, -60 * UM, 0.0]), "boundary", 4000.0))
    net.new_segment(0, 1, 6 * UM)
    net.new_segment(1, 2, 4 * UM)
    net.new_segment(1, 3, 3 * UM)
    return net


def make_desk_network():
    """Deterministic ~50-segment ladder inside a 1 mm cube.

    Two parallel backbones (arterial inlet at 8000 Pa, venous outlet at
    4000 Pa) joined by capillary rungs, plus pendant dead-end twigs.
    """
    net = VascularNetwork()
    n = 13
    xs = np.linspace(0.1e-3, 0.9e-3, n)
    art, ven = [], []
    for x in xs:
        art.append(net.new_node(np.array([x, 0.30e-3, 0.50e-3])).id)
    for x in xs:
        ven.append(net.new_node(np.array([x, 0.70e-3, 0.50e-3])).id)
    inlet = net.nodes[art[0]]
    inlet.kind = "boundary"
    inlet.boundary_pressure = 8000.0
    outlet = net.nodes[ven[-1]]
    outlet.kind = "boundary"
    outlet.boundary_pressure = 4000.0
    for i in range(n - 1):
        net.new_segment(art[i], art[i + 1], 15 * UM)
        net.new_segment(ven[i], ven[i + 1], 18 * UM)
    for i in range(n):
        net.new_segment(art[i], ven[i], 3 * UM)
    for i in range(1, n - 1):
        twig = net.new_node(np.array([xs[i], 0.30e-3, 0.54e-3]))
        net.new_segment(art[i], twig.id, 2.5 * UM)
    return net


def make_starter_network():
    """Four-inlet seed tree for growth runs in a 0.5 mm cube.

    Two high-pressure and two low-pressure roots on the cube faces, each
    feeding one interior terminal through a 6 um segment.
    """
    net = VascularNetwork()
    c = 0.25e-3
    roots = [
        ((0.0, c, c), (60 * UM, c, c), 9000.0),
        ((0.5e-3, c, c), (0.5e-3 - 60 * UM, c, c), 3000.0),
        ((c, 0.0, c), (c, 60 * UM, c), 8500.0),
        ((c, 0.5e-3, c), (c, 0.5e-3 - 60 * UM, c), 3500.0),
    ]
    for pos, tip_pos, pressure in roots:
        root = net.new_node(
            np.array(pos), kind="boundary", boundary_pressure=pressure, is_root=True
        )
        tip = net.new_node(np.array(tip_pos))
        net.new_segment(root.id, tip.id, 6 * UM)
    return net


def make_jittered_lattice(seed, n_per_axis, side=0.5e-3, jitter=0.15,
                          twig_fraction=0.05):
    """Cubic capillary lattice filling [0, side]^3 with n_per_axis^3 nodes.

    Interior nodes move by up to `jitter` spacings on each axis; nodes on
    the x = 0 and x = side faces hold 8000 and 4000 Pa, and no vessel lies
    in those faces. About `twig_fraction` of the interior nodes carry a
    dead-end twig of two segments. 13 nodes per axis give ~5.6k segments.
    """
    rng = np.random.default_rng(seed)
    n = n_per_axis
    h = side / (n - 1)
    net = VascularNetwork()
    ids = {}
    for ijk in np.ndindex(n, n, n):
        index = np.array(ijk)
        interior = (index > 0) & (index < n - 1)
        pos = index * h + np.where(interior, rng.uniform(-jitter, jitter, 3) * h, 0.0)
        if ijk[0] in (0, n - 1):
            pressure = 8000.0 if ijk[0] == 0 else 4000.0
            node = net.new_node(pos, kind="boundary", boundary_pressure=pressure)
        else:
            node = net.new_node(pos)
        ids[ijk] = node.id
    for ijk, nid in ids.items():
        for axis in range(3):
            step = list(ijk)
            step[axis] += 1
            other = ids.get(tuple(step))
            if other is not None and (axis == 0 or ijk[0] not in (0, n - 1)):
                net.new_segment(nid, other, float(rng.uniform(2.5, 4.0)) * UM)
    interior = [nid for ijk, nid in ids.items() if all(0 < c < n - 1 for c in ijk)]
    for nid in rng.choice(interior, size=round(twig_fraction * len(interior)),
                          replace=False):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        base = net.nodes[int(nid)].position
        prev = int(nid)
        for k in (1, 2):
            tip = net.new_node(base + direction * (0.3 * h * k))
            net.new_segment(prev, tip.id, 2.5 * UM)
            prev = tip.id
    return net


def endpoints(net, sid):
    """Positions of segment sid's node_a and node_b."""
    seg = net.segments[sid]
    return net.nodes[seg.node_a].position, net.nodes[seg.node_b].position


def cell_ijk(grid, cells):
    """(i, j, k) of linear cell indices i + nx*(j + ny*k)."""
    nx, ny, _ = grid.cells_per_axis
    cells = np.asarray(cells)
    return cells % nx, (cells // nx) % ny, cells // (nx * ny)


def cell_midpoints(grid):
    """(n_cells, 3) cell centers in linear-index order."""
    ijk = np.stack(cell_ijk(grid, np.arange(grid.n_cells)), axis=-1)
    return grid.box.lower + (ijk + 0.5) * grid.spacing


@pytest.fixture
def unit_cube():
    return DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])


@pytest.fixture
def desk_grid(unit_cube):
    return build_grid(unit_cube, (20, 20, 20))


@pytest.fixture
def desk_network():
    return make_desk_network()


@pytest.fixture
def starter_setup():
    roi = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
    domain = enlarge_domain(roi, 0.10)
    grid = build_grid(domain, (20, 20, 20))
    return make_starter_network(), roi, domain, grid
