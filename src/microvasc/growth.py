"""Stochastic three-phase generation of surrogate microvascular networks.

Phase 1 grows the large vessels (radius > 4.5 um) from the terminal nodes
of the segmented tree, phase 2 fills in the capillary bed and links tips
into the surrounding network, phase 3 prunes dead ends inside the region
of interest. Growth direction follows the tissue PO2 gradient, one cell
field per solved state (`cell_gradient`) read at each tip's cell; radii
follow Murray's law at bifurcations, and every candidate vessel is
collision-checked against the existing network. Boundary PO2 values come
from the run's `OxygenParameters`.

Collision queries go through `OctantIndex`, a uniform bucket grid whose
edge is set by the network when it is built. `collides` keeps the index's
candidates whose radius-inflated boxes reach the query's, drops those
incident to the attached nodes, and measures the rest in one vectorized
pass (`segment_distances`), deciding on those distances. The kernel takes
every dot product with `np.vecdot`, which reduces each row on its own, so a
row's distance is the same bit for bit in any batch and equals
`segment_distance`, its one-row call: the answers are those of a scan of
`segment_distance` over all segments. Tests on one point (a box's
`contains`, a cell's `locate`, a control volume's saturation) and the cross
products of the branch directions run on Python floats, with the IEEE
operations of their numpy forms.
Linking is one exact vectorized pass over a table of all nodes: its
distances and cone cosines come from `np.vecdot`, the dot kernel behind
`np.linalg.norm` and 1-D `@`, so they equal a scalar scan's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .flow import FlowParameters, assemble_flow_system, solve_flow
from .grid import TissueGrid, build_surface_coupling
from .network import DomainBox, Segment, VascularNetwork
from .oxygen import (
    OxygenParameters,
    assemble_transport_operator,
    classify_arterial_venous,
    solve_oxygen,
)
from .rheology import RheologyParameters
from .units import UM


@dataclass
class GrowthParameters:
    gamma: float = 3.0  # Murray exponent
    lambda_g: float = 1.0  # bending regularisation
    mu_r: float = 2.4  # log length/radius ratio, mean
    sigma_r: float = 0.3  # log length/radius ratio, std
    p_th: float = 0.6  # bifurcation probability threshold
    large_radius: float = 4.5 * UM  # phase-1 growth bound
    small_radius_mode_mu: float = 2.75 * UM
    small_radius_mode_sigma: float = 0.25 * UM
    min_radius: float = 2.0 * UM
    small_radius_switch: float = 3.0 * UM
    link_mu: float = 60.0 * UM  # linking distance distribution
    link_sigma: float = 10.0 * UM
    cone_angle: float = 2.0 * math.pi / 3.0  # full opening angle of the link cone
    cv_per_axis: int = 4
    po2_stop: float = 36.5  # mmHg
    max_iter_p1: int = 35
    max_iter_p2: int = 35
    max_iter_p3: int = 15
    p3_terminal_stop: int = 10
    radius_sigma_divisor: float = 32.0
    rel_change_p1: float = 1.0e-2
    change_p2: float = 1.0e-3  # absolute, mmHg

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.p_th < 1.0:
            raise ValidationError("bifurcation threshold must lie in (0, 1)")
        if not 2.0 <= self.gamma <= 4.0:
            raise ValidationError("Murray exponent must lie in [2, 4]")
        for name, least in (
            ("cv_per_axis", 1), ("max_iter_p1", 0), ("max_iter_p2", 0), ("max_iter_p3", 0)
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValidationError(f"{name} must be an integer of at least {least}")
        for name in ("sigma_r", "link_sigma", "small_radius_mode_sigma"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.radius_sigma_divisor <= 0.0:
            raise ValidationError("radius_sigma_divisor must be positive")


# -- geometry primitives -------------------------------------------------


_EPS = 1e-30  # squared length below which a segment is a point
_PARALLEL = 1e-6  # sin^2 of the angle below which segments count as parallel


def segment_distances(a0, a1, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Minimum distance between segment a0-a1 and each row's b0[i]-b1[i].

    The closest pair comes from the clamped line parameters, zero-length
    segments on either side taking their own branch. That pair is wrong for
    nearly parallel segments, where a*e - b*b is rounding noise, so on rows
    with a*e - b*b <= _PARALLEL * a*e (zero-length ones included) the answer
    is the least of it and the four endpoint-to-segment distances: each is a
    true point-pair distance, and in the degenerate case the minimum is one
    of them (Eberly, "Robust Computation of Distance Between Line Segments",
    2015). Every dot product is an `np.vecdot`, which reduces each row on
    its own, so a row's distance does not depend on the batch around it.

    The branches for zero-length rows, rows that are not skew and line
    parameters past an end each run on their own rows, and only when some
    row takes them (`np.count_nonzero` asks, at a third of the cost of
    `any`); every row gets the same floating-point operations as when all
    branches ran on every row and a mask picked the answer.
    """
    a0 = np.asarray(a0, float)
    d1 = np.asarray(a1, float) - a0
    d2 = b1 - b0
    r = a0 - b0
    a = np.vecdot(d1, d1)
    e = np.vecdot(d2, d2)
    f = np.vecdot(d2, r)
    c = np.vecdot(r, d1)
    b = np.vecdot(d2, d1)
    denom = a * e - b * b
    point_b = e <= _EPS
    some_points = np.count_nonzero(point_b)
    e_safe = np.where(point_b, 1.0, e) if some_points else e
    if a <= _EPS:  # s = 0: the point a0 against each segment
        t = _unit(f / e_safe)
        if some_points:
            t[point_b] = 0.0
        diff = r - t[:, None] * d2
    else:
        skew = denom > 0
        if np.count_nonzero(skew) == skew.size:
            s = _unit((b * f - c * e) / denom)
        else:
            s = _unit((b * f - c * e) / np.where(skew, denom, 1.0))
            s[~skew] = 0.0
        t = (b * s + f) / e_safe
        low, high = t < 0.0, t > 1.0  # t clamped to its nearer end, s to match
        if np.count_nonzero(low):
            s[low] = _unit(-c[low] / a)
            t[low] = 0.0
        if np.count_nonzero(high):
            s[high] = _unit((b[high] - c[high]) / a)
            t[high] = 1.0
        if some_points:
            s[point_b] = _unit(-c[point_b] / a)
            t[point_b] = 0.0
        diff = r + s[:, None] * d1 - t[:, None] * d2
    dist = np.sqrt(np.vecdot(diff, diff))
    near = denom <= _PARALLEL * a * e
    if np.count_nonzero(near):
        dist[near] = np.minimum(dist[near], _endpoint_distances(
            r[near], d1, d2[near], a, e[near], f[near], c[near], b[near]
        ))
    return dist


def _unit(x: np.ndarray) -> np.ndarray:
    """x clamped to [0, 1] in place, NaN kept: np.clip's values, at a
    fraction of its per-call cost on short rows."""
    return np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)


def segment_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between 3D line segments a0-a1 and b0-b1: the
    one-row call of `segment_distances`."""
    b0, b1 = (np.asarray(p, float).reshape(1, 3) for p in (b0, b1))
    return float(segment_distances(a0, a1, b0, b1)[0])


def _endpoint_distances(r, d1, d2, a, e, f, c, b):
    """Rows' least distance from a0 and a1 to segment b and from b0 and b1
    to segment a, the dot products given as in `segment_distances`."""
    e_safe = np.where(e > _EPS, e, np.inf)  # a point: parameter 0
    a_safe = a if a > _EPS else np.inf
    zeros, ones = np.zeros_like(e), np.ones_like(e)
    s = np.stack([zeros, ones, _unit(-c / a_safe), _unit((b - c) / a_safe)])
    t = np.stack([_unit(f / e_safe), _unit((f + b) / e_safe), zeros, ones])
    diff = r + s[..., None] * d1 - t[..., None] * d2
    return np.sqrt(np.min(np.vecdot(diff, diff), axis=0))


def _rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v about the unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + _cross(axis, v) * s + axis * (axis @ v) * (1.0 - c)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v of two 3-vectors on floats: np.cross's products and
    differences, without its per-call set-up."""
    (ux, uy, uz), (vx, vy, vz) = u.tolist(), v.tolist()
    return np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


# -- segment index: uniform bucket grid ----------------------------------

MAX_BUCKETS_PER_AXIS = 64  # keeps the grid coarse for tiny segments in big domains


class OctantIndex:
    """Uniform bucket grid over the domain, holding the network's segments.

    The bucket edge is fixed when the index is built: the median segment
    length plus twice the largest radius, but at least the longest domain
    side over MAX_BUCKETS_PER_AXIS (an empty network gets one bucket). A
    segment is listed in every bucket its radius-inflated bounding box
    overlaps; a query lists the buckets of its own box inflated by its
    radius, so every segment closer than the sum of radii is a candidate.
    Bucket coordinates are clamped to the grid, so geometry outside the
    domain falls into the border buckets and is still found. Endpoints and
    radii are kept in arrays, one row (slot) per segment; `remove` only
    marks a slot dead. Each segment's radius-inflated box is kept the same
    way, as one row of `box`: its lower corner minus the radius, then minus
    (its upper corner plus the radius), so that one `<=` against a query's
    row tests the overlap on all six faces (`collides`).

    `build` indexes the whole network in one array pass: every segment's
    (bucket, slot) pairs at once (`_bucket_pairs`), sorted by bucket. It
    gives the index that inserting the segments one by one in
    `VascularNetwork.table()` order gives, down to the order of the bucket
    dict and of each bucket's slots. `insert` and
    `candidates` key one box at a time with plain float arithmetic
    (`_keys`), elementwise the same as the array pass.

    The index proposes, it does not decide: `collides` measures the
    candidates in one batched pass. The class keeps the name it had when it
    split the domain into eight octants, because `perfbench/tracing.py`
    wraps `OctantIndex.candidates` by name.
    """

    def __init__(self, domain: DomainBox, edge: float):
        extent = float(np.max(domain.extent))
        self.edge = max(float(edge), extent / MAX_BUCKETS_PER_AXIS)
        self.origin = np.asarray(domain.lower, float)
        self.top = np.maximum(np.ceil(domain.extent / self.edge).astype(int), 1) - 1
        self._origin = self.origin.tolist()
        self._top = self.top.astype(float).tolist()
        self.buckets: dict[int, list[int]] = {}
        self.slot_of: dict[int, int] = {}  # live segment id -> slot
        self.size = 0
        self.ids = np.empty(0, dtype=np.int64)
        self.p0 = np.empty((0, 3))
        self.p1 = np.empty((0, 3))
        self.radius = np.empty(0)
        self.box = np.empty((0, 6))
        self.alive = np.empty(0, dtype=bool)

    def _keys(self, p0: np.ndarray, p1: np.ndarray, pad: float) -> list[int]:
        """Linear keys of the buckets overlapping the box of p0-p1 grown by pad.

        Bucket coordinates are clamped to [0, top] before the floor, which
        is the floor clamped to the grid, since both bounds are integers.
        """
        lo, hi = [], []
        for a, b, o, t in zip(p0.tolist(), p1.tolist(), self._origin, self._top):
            lo.append(math.floor(min(max((min(a, b) - pad - o) / self.edge, 0.0), t)))
            hi.append(math.floor(min(max((max(a, b) + pad - o) / self.edge, 0.0), t)))
        (i0, j0, k0), (i1, j1, k1) = lo, hi
        ny, nz = int(self.top[1]) + 1, int(self.top[2]) + 1
        return [
            (i * ny + j) * nz + k
            for i in range(i0, i1 + 1)
            for j in range(j0, j1 + 1)
            for k in range(k0, k1 + 1)
        ]

    def _bucket_pairs(self, p0: np.ndarray, p1: np.ndarray, pad: np.ndarray):
        """(key, row) of every bucket overlapping each row's box of p0-p1
        grown by pad: `_keys` of all rows at once, rows in order and keys
        ascending within a row."""
        lo = np.floor((np.minimum(p0, p1) - pad[:, None] - self.origin) / self.edge)
        hi = np.floor((np.maximum(p0, p1) + pad[:, None] - self.origin) / self.edge)
        lo = np.clip(lo, 0, self.top).astype(np.int64)
        span = np.clip(hi, 0, self.top).astype(np.int64) - lo + 1
        counts = span.prod(axis=1)
        rows = np.repeat(np.arange(len(counts)), counts)
        # position of each pair inside its row's i-major (i, j, k) block
        local = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nj, nk = span[rows, 1], span[rows, 2]
        i = lo[rows, 0] + local // (nj * nk)
        j = lo[rows, 1] + local // nk % nj
        k = lo[rows, 2] + local % nk
        ny, nz = self.top[1] + 1, self.top[2] + 1
        return (i * ny + j) * nz + k, rows

    def _grow(self):
        cap = max(2 * self.size, 64)
        for name in ("ids", "p0", "p1", "radius", "box", "alive"):
            old = getattr(self, name)
            new = np.zeros((cap, *old.shape[1:]), dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def insert(self, seg_id: int, p0, p1, radius: float):
        p0 = np.asarray(p0, float)
        p1 = np.asarray(p1, float)
        if self.size == self.ids.size:
            self._grow()
        slot = self.size
        self.size += 1
        self.ids[slot] = seg_id
        self.p0[slot] = p0
        self.p1[slot] = p1
        self.radius[slot] = radius
        pairs = list(zip(p0.tolist(), p1.tolist()))
        self.box[slot] = ([min(a, b) - radius for a, b in pairs]
                          + [-(max(a, b) + radius) for a, b in pairs])
        self.alive[slot] = True
        self.slot_of[seg_id] = slot
        for key in self._keys(p0, p1, radius):
            self.buckets.setdefault(key, []).append(slot)

    def remove(self, seg_id: int):
        slot = self.slot_of.pop(seg_id, None)
        if slot is not None:
            self.alive[slot] = False

    def candidates(self, p0, p1, radius: float) -> np.ndarray:
        """Slots of the live segments sharing a bucket with the query box.

        The box is grown by the radius plus a rounding pad of 1e-9 bucket
        edges. Index `ids`, `p0`, `p1` and `radius` with the result.
        """
        p0 = np.asarray(p0, float)
        p1 = np.asarray(p1, float)
        found: set[int] = set()
        for key in self._keys(p0, p1, radius + 1e-9 * self.edge):
            members = self.buckets.get(key)
            if members:
                found.update(members)
        slots = np.fromiter(found, dtype=np.intp, count=len(found))
        return slots[self.alive[slots]]

    @classmethod
    def build(cls, domain: DomainBox, net: VascularNetwork) -> "OctantIndex":
        table = net.table()
        p0, p1 = table.position[table.ends.T]
        radius = table.radius
        n = radius.size
        d = p0 - p1
        # no segments: one bucket holding everything added later
        edge = (float(np.median(np.sqrt(np.vecdot(d, d)))) + 2.0 * float(radius.max()) if n
                else float(np.max(domain.extent)))
        index = cls(domain, edge)
        index.size = n
        index.ids = table.segment_ids
        index.p0, index.p1, index.radius = p0, p1, radius
        index.box = np.hstack([np.minimum(p0, p1) - radius[:, None],
                               -(np.maximum(p0, p1) + radius[:, None])])
        index.alive = np.ones(n, dtype=bool)
        index.slot_of = dict(zip(index.ids.tolist(), range(n)))
        keys, slots = index._bucket_pairs(p0, p1, radius)
        order = np.argsort(keys, kind="stable")  # slots stay ascending in a bucket
        keys, slots = keys[order], slots[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        bounds = np.append(starts, keys.size).tolist()
        # buckets in the order inserts would create them: by their first slot
        first = np.argsort(slots[starts], kind="stable").tolist()
        keys, slots = keys[starts].tolist(), slots.tolist()
        index.buckets = {keys[g]: slots[bounds[g]:bounds[g + 1]] for g in first}
        return index


_MARGIN = 1e-9  # of the query radius and of the bucket edge, in the box test


def collides(
    net: VascularNetwork,
    octants: OctantIndex,
    p0: np.ndarray,
    p1: np.ndarray,
    radius: float,
    attached_nodes: set[int],
) -> bool:
    """True if the candidate cylinder intersects an unrelated vessel.

    Segments sharing a network node with the candidate (those incident to
    `attached_nodes`) are exempt; the rejection guard is the strict
    inequality dist < R_new + R_k on the index's candidates.

    Only candidates that can collide are measured. A candidate is kept
    where its box row (`OctantIndex`) overlaps the query's box grown by
    pad = R_new * (1 + _MARGIN) + _MARGIN * edge, in one `<=` of the six
    bounds; exempt segments are then dropped, and `segment_distances`
    measures what is left in one batched pass, or is not called when
    nothing is. The answer is that of measuring every candidate. A dropped
    row is separated from the query along some axis by more than
    R_new + R_k plus the margin, and the kernel only ever measures a real
    pair of points, one on each segment, so its distance for that row
    could not have come out below R_new + R_k: the margin is many times
    the rounding of the bounds and of the distance, for coordinates up to
    about 100 domain sides from the origin. The kernel's rows are
    independent of the batch around them, so a kept row's distance is the
    same as among all candidates.
    """
    slots = octants.candidates(p0, p1, radius)
    if not slots.size:
        return False
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    pad = radius * (1.0 + _MARGIN) + _MARGIN * octants.edge
    pairs = list(zip(p0.tolist(), p1.tolist()))
    reach = [max(a, b) + pad for a, b in pairs] + [pad - min(a, b) for a, b in pairs]
    slots = slots[(octants.box[slots] <= reach).all(1)]
    rows = []
    for slot, sid in zip(slots.tolist(), octants.ids[slots].tolist()):
        seg = net.segments.get(sid)
        if seg is not None and not (seg.node_a in attached_nodes or seg.node_b in attached_nodes):
            rows.append(slot)
    if not rows:
        return False
    rows = np.array(rows)
    dist = segment_distances(p0, p1, octants.p0[rows], octants.p1[rows])
    return bool(np.count_nonzero(dist < radius + octants.radius[rows]))


def check_and_insert(
    net: VascularNetwork,
    octants: OctantIndex,
    tip_node: int,
    new_position: np.ndarray,
    radius: float,
):
    """Collision-check a new vessel from an existing node; insert if clear.

    Returns the created Segment, or None if the candidate was rejected.
    The new endpoint inherits the tip's kind and boundary pressure.
    """
    p0 = net.nodes[tip_node].position
    if collides(net, octants, p0, new_position, radius, {tip_node}):
        return None
    old = net.nodes[tip_node]
    node = net.new_node(
        new_position,
        kind=old.kind,
        boundary_pressure=old.boundary_pressure,
    )
    seg = net.new_segment(tip_node, node.id, radius)
    octants.insert(seg.id, p0, new_position, radius)
    return seg


# -- stochastic growth rules ---------------------------------------------


def growth_direction(po2_gradient, parent_orientation, lambda_g: float) -> np.ndarray:
    """normalize(normalize(grad) + lambda_g * d_parent); gradient-free tips
    keep growing straight."""
    grad = np.asarray(po2_gradient, float)
    norm = np.linalg.norm(grad)
    if norm == 0.0:
        return np.asarray(parent_orientation, float)
    d = grad / norm + lambda_g * np.asarray(parent_orientation, float)
    n = np.linalg.norm(d)
    if n == 0.0:
        return np.asarray(parent_orientation, float)
    return d / n


def sample_length_ratio(rng: np.random.Generator, params: GrowthParameters) -> float:
    """Draw the length/radius ratio r from LogNormal(mu_r, sigma_r)."""
    return float(rng.lognormal(params.mu_r, params.sigma_r))


def sample_length(parent_radius: float, rng, params: GrowthParameters) -> float:
    if parent_radius <= 0.0:
        raise ValidationError("parent radius must be positive")
    return parent_radius * sample_length_ratio(rng, params)


def bifurcation_probability(r: float, params: GrowthParameters) -> float:
    z = (math.log(r) - params.mu_r) / math.sqrt(2.0 * params.sigma_r**2)
    return 0.5 + 0.5 * math.erf(z)


def bifurcation_decision(r: float, params: GrowthParameters) -> bool:
    if r <= 0.0:
        raise ValidationError("length ratio must be positive")
    return bifurcation_probability(r, params) > params.p_th


def murray_branch_radii(
    parent_radius: float, rng: np.random.Generator, params: GrowthParameters
) -> tuple[float, float]:
    """Two branch radii around the symmetric Murray radius 2^(-1/gamma)*R,
    gamma being `params.gamma`.

    Each is drawn from Normal(R_c, R_c/divisor), truncated to (0, parent].
    """
    if parent_radius <= 0.0:
        raise ValidationError("parent radius must be positive")
    r_c = 2.0 ** (-1.0 / params.gamma) * parent_radius
    sigma = r_c / params.radius_sigma_divisor
    out = []
    for _ in range(2):
        for _ in range(100):
            draw = rng.normal(r_c, sigma)
            if 0.0 < draw <= parent_radius:
                break
        else:
            draw = min(r_c, parent_radius)
        out.append(float(draw))
    return out[0], out[1]


def bifurcation_angles(
    parent_radius: float, r_b1: float, r_b2: float
) -> tuple[float, float, bool]:
    """Minimum-work branching angles; arccos arguments clamped when needed.

    Returns (phi1, phi2, clamped_flag).
    """
    r4 = parent_radius**4
    clamped = False
    angles = []
    for rb, other in ((r_b1, r_b2), (r_b2, r_b1)):
        arg = (r4 + rb**4 - other**4) / (2.0 * parent_radius**2 * rb**2)
        if not -1.0 <= arg <= 1.0:
            clamped = True
            arg = min(1.0, max(-1.0, arg))
        angles.append(math.acos(arg))
    return angles[0], angles[1], clamped


def _perpendicular(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded unit vector perpendicular to v, for degenerate cross products."""
    for _ in range(16):
        w = rng.normal(size=3)
        w -= (w @ v) * v
        n = np.linalg.norm(w)
        if n > 1e-12:
            return w / n
    # v has to be near-zero for the loop to fail; fall back to a fixed axis
    return np.array([1.0, 0.0, 0.0])


def build_bifurcation_directions(
    d_k: np.ndarray,
    d_g: np.ndarray,
    phi1: float,
    phi2: float,
    rng: np.random.Generator,
):
    """Branch directions: rotate the parent by +phi1 / -phi2 in the plane
    spanned by parent and growth direction, then relax the branch closer to
    the growth direction onto the bisector of itself and d_g.

    Returns (d_b1, d_b2, kept_index, n_p): kept_index in {0, 1} names the
    non-relaxed branch, which makes the drawn angle with d_k, and n_p is
    the unit normal of the rotation plane.
    """
    d_k = np.asarray(d_k, float)
    d_g = np.asarray(d_g, float)
    n_p = _cross(d_k, d_g)
    norm = np.linalg.norm(n_p)
    if norm < 1e-12:
        n_p = _perpendicular(d_k, rng)
    else:
        n_p = n_p / norm
    d_b1 = _rotate(d_k, n_p, phi1)
    d_b2 = _rotate(d_k, n_p, -phi2)
    dirs = [d_b1, d_b2]
    dists = [np.linalg.norm(d - d_g) for d in dirs]
    i_min = int(np.argmin(dists))
    bisector = dirs[i_min] + d_g
    n = np.linalg.norm(bisector)
    dirs[i_min] = dirs[i_min] if n < 1e-12 else bisector / n
    return dirs[0], dirs[1], 1 - i_min, n_p


# -- cell fields: gradient and control-volume averages -------------------


def cell_gradient(values: np.ndarray, grid: TissueGrid) -> np.ndarray:
    """(n_cells, 3) gradient of a cell field, columns d/dx, d/dy, d/dz:
    central differences inside the grid, one-sided on its faces."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    d_z, d_y, d_x = np.gradient(values.reshape((nz, ny, nx)), dz, dy, dx)
    return np.stack([d_x.ravel(), d_y.ravel(), d_z.ravel()], axis=1)


def control_volume_averages(
    po2_t: np.ndarray, grid: TissueGrid, roi: DomainBox, n_per_axis: int
):
    """Volume-weighted average oxygen per control volume and over the roi.

    Grid cells partially covered by a control volume contribute with their
    geometric overlap volume, so the control volumes tile the roi exactly.
    The overlaps, volumes and contraction order are the grid's, built once
    per (roi, n_per_axis) (`TissueGrid.control_volumes`).
    Returns (cv_averages with shape (n,n,n) indexed [ix, iy, iz], po2_roi).
    """
    cv = grid.control_volumes(roi, n_per_axis)
    weighted = cv.sums(po2_t)
    with np.errstate(invalid="ignore"):
        averages = np.where(cv.volume > 0.0, weighted / np.maximum(cv.volume, 1e-300), 0.0)
    po2_roi = float(np.sum(weighted) / cv.total)
    return averages, po2_roi


# -- growth engine -------------------------------------------------------


def node_values(order, values: np.ndarray, ids) -> np.ndarray:
    """`values`, given per node in the sorted node `order`, at the node
    `ids`; NaN at an id that `order` lacks."""
    order = np.asarray(order)
    at = np.searchsorted(order, ids).clip(max=order.size - 1)
    return np.where(order[at] == ids, values[at], np.nan)


class GrowthEngine:
    """Runs the three growth phases on one network with one seeded RNG.

    Every step of every phase ends in `_end_step`, which appends
    (phase, step, po2_roi) to `steps` and then hands the network to the
    `checkpoint` hook. Phases 1 and 2 solve once per step; phase 3 solves
    nothing, so its steps carry the last solved `po2_roi` (None if none).
    Every solve pins the oxygen boundary to the first solve's `boundary_po2`.
    """

    def __init__(
        self,
        net: VascularNetwork,
        domain: DomainBox,
        roi: DomainBox,
        grid: TissueGrid,
        rheology: RheologyParameters,
        flow_params: FlowParameters,
        oxygen_params: OxygenParameters,
        params: GrowthParameters,
        rng: np.random.Generator,
        checkpoint=None,
    ):
        self.net = net
        self.domain = domain
        self.roi = roi
        self.grid = grid
        self.rheology = rheology
        self.flow_params = flow_params
        self.oxygen_params = oxygen_params
        self.params = params
        self.rng = rng
        self.checkpoint = checkpoint  # callable(phase, step, net, po2_roi) or None
        self.octants = OctantIndex.build(domain, net)
        self.flow = None
        self.oxygen = None
        self.cv_field = None
        self.po2_roi = None
        self.po2_grad = None  # (n_cells, 3), of the last solved state
        self.boundary_po2 = None  # mmHg by node id, classified at the first solve
        self.steps: list[tuple[int, int, float | None]] = []

    # -- solving --------------------------------------------------------

    def solve_state(self):
        """Flow + oxygen solve, PO2 gradient and control-volume averages."""
        coupling = build_surface_coupling(self.grid, self.net)
        system = assemble_flow_system(
            self.net, self.grid, coupling, self.rheology, self.flow_params
        )
        self.flow = solve_flow(system)
        if self.boundary_po2 is None:
            self.boundary_po2 = classify_arterial_venous(self.net, self.flow, self.oxygen_params)
        operator = assemble_transport_operator(
            self.net, self.grid, coupling, self.flow, self.flow_params,
            self.oxygen_params, self.boundary_po2,
        )
        guess = self._initial_guess(operator)
        self.oxygen = solve_oxygen(operator, self.oxygen_params, guess)
        self.po2_grad = cell_gradient(self.oxygen.po2_t, self.grid)
        self.cv_field, self.po2_roi = control_volume_averages(
            self.oxygen.po2_t, self.grid, self.roi, self.params.cv_per_axis
        )
        return self.flow, self.oxygen

    def _initial_guess(self, system):
        """The last solved PO2 on the new system's unknowns; a node new since
        then starts at the venous PO2 (`solve_oxygen` pins boundary rows)."""
        if self.oxygen is None:
            return None
        nodes = node_values(self.oxygen.node_order, self.oxygen.po2_nodes, system.node_order)
        nodes[np.isnan(nodes)] = self.oxygen_params.venous_po2
        return np.concatenate([self.oxygen.po2_t, nodes])

    def po2_gradient(self, position: np.ndarray) -> np.ndarray:
        """PO2 gradient of the last solved state at `position`'s cell."""
        return self.po2_grad[self.grid.locate(position)[0]]

    # -- tip extension ---------------------------------------------------

    def _tip_segment(self, tip: int):
        sid = self.net.adjacency[tip][0]
        seg = self.net.segments[sid]
        length, orientation = self.net.segment_geometry(sid)
        if seg.node_b != tip:
            orientation = -orientation
        return seg, orientation

    def _child_radius(self, raw_radius: float, parent_radius: float, phase: int):
        """Phase-2 small-vessel rule: redraw tiny radii, clamp to bounds."""
        if phase == 2 and raw_radius < self.params.small_radius_switch:
            draw = self.rng.normal(
                self.params.small_radius_mode_mu, self.params.small_radius_mode_sigma
            )
            return float(
                min(max(draw, self.params.min_radius), parent_radius)
            )
        return raw_radius

    def _try_attach(self, tip: int, direction: np.ndarray, length: float,
                    radius: float):
        new_pos = self.net.nodes[tip].position + length * direction
        if not self.domain.strictly_contains(new_pos):
            return None
        return check_and_insert(self.net, self.octants, tip, new_pos, radius)

    def _extend_tip(self, tip: int, phase: int):
        """Grow a single vessel or a bifurcation at one terminal node."""
        seg, d_k = self._tip_segment(tip)
        parent_radius = seg.radius
        r = sample_length_ratio(self.rng, self.params)
        grad = self.po2_gradient(self.net.nodes[tip].position)
        d_g = growth_direction(grad, d_k, self.params.lambda_g)
        attached = False
        if bifurcation_decision(r, self.params):
            r_b1, r_b2 = murray_branch_radii(parent_radius, self.rng, self.params)
            r_b1 = self._child_radius(r_b1, parent_radius, phase)
            r_b2 = self._child_radius(r_b2, parent_radius, phase)
            phi1, phi2, _ = bifurcation_angles(parent_radius, r_b1, r_b2)
            d_b1, d_b2, _, _ = build_bifurcation_directions(
                d_k, d_g, phi1, phi2, self.rng
            )
            for direction, radius in ((d_b1, r_b1), (d_b2, r_b2)):
                length = sample_length(parent_radius, self.rng, self.params)
                if self._try_attach(tip, direction, length, radius) is not None:
                    attached = True
        else:
            # r drew both this length and the decision not to bifurcate
            radius = self._child_radius(parent_radius, parent_radius, phase)
            attached = self._try_attach(tip, d_g, parent_radius * r, radius) is not None
        if attached:
            self._demote_tip(tip)

    def _demote_tip(self, tip: int):
        """A tip that received children becomes an interior junction."""
        node = self.net.nodes[tip]
        node.kind = "inner"
        node.boundary_pressure = None
        node.is_root = False

    # -- linking ----------------------------------------------------------

    def _node_table(self):
        """Node ids, their positions and their pressures in the last solved
        flow (NaN for a node it lacks), for the link search."""
        table = self.net.table()
        ids = table.node_ids
        if self.flow is None:
            return ids, table.position, np.full(ids.size, np.nan)
        return ids, table.position, node_values(self.flow.node_order, self.flow.p_nodes, ids)

    def _link_candidates(self, tip: int, d_x: float, table):
        """Nodes inside the tip's cone and within d_x of it, best first.

        Returns [(node id, distance, score)] sorted by (-score, id), where
        the score is the normalized pressure difference minus the
        normalized distance; a node or tip without a pressure scores a
        difference of 0. Distances and cone cosines are a scalar scan's, bit
        for bit (see the module docstring).
        """
        seg, d_tip = self._tip_segment(tip)
        ids, positions, pressure = table
        delta = positions - self.net.nodes[tip].position
        dist = np.sqrt(np.vecdot(delta, delta))
        near = np.flatnonzero((dist > 0.0) & (dist <= d_x))
        cone = np.vecdot(delta[near] / dist[near, None], d_tip)
        keep = near[cone >= math.cos(self.params.cone_angle / 2.0)]
        keep = keep[(ids[keep] != seg.node_a) & (ids[keep] != seg.node_b)]
        if not keep.size:
            return []
        dp = np.nan_to_num(np.abs(pressure[keep] - pressure[np.searchsorted(ids, tip)]))
        dp_max = dp.max()
        score = (dp / dp_max if dp_max > 0 else 0.0) - dist[keep] / d_x
        best = np.lexsort((ids[keep], -score))
        return list(zip(ids[keep][best].tolist(), dist[keep][best].tolist(),
                        score[best].tolist()))

    def _link_terminal(self, tip: int, table):
        """Connect one terminal node to a nearby node inside the cone.

        Candidates within the cone and inside the drawn search distance are
        ranked by `_link_candidates`; the best collision-free one wins.
        `table` is `_node_table()`, taken before linking began.
        """
        seg, _ = self._tip_segment(tip)
        x = self.net.nodes[tip].position
        d_x = self.rng.normal(self.params.link_mu, self.params.link_sigma)
        if d_x <= 0.0:
            return
        for nid, _, _ in self._link_candidates(tip, d_x, table):
            other_radii = [
                self.net.segments[s].radius for s in self.net.adjacency[nid]
            ]
            radius = 0.5 * (seg.radius + float(np.mean(other_radii)))
            y = self.net.nodes[nid].position
            if collides(self.net, self.octants, x, y, radius, {tip, nid}):
                continue
            link = self.net.new_segment(tip, nid, radius)
            self.octants.insert(link.id, x, y, radius)
            self._demote_tip(tip)
            if len(self.net.adjacency[nid]) > 1 and not self.net.nodes[nid].is_root:
                self._demote_tip(nid)
            return

    def _link_all_terminals(self):
        # linking adds segments, never nodes: one table serves every tip
        table = self._node_table()
        for tip in self.net.terminal_nodes(self.domain):
            self._link_terminal(tip, table)

    # -- phases -----------------------------------------------------------

    def run_phase1(self):
        """Grow large vessels until the oxygen field stops changing."""
        params = self.params
        po2_old = 0.0
        large_tips = self._large_tips()
        for j in range(params.max_iter_p1 + 1):
            self.solve_state()
            for tip in large_tips:
                self._extend_tip(tip, phase=1)
            self._end_step(1, j)
            rel = abs(self.po2_roi - po2_old) / self.po2_roi if self.po2_roi else 1.0
            po2_old = self.po2_roi
            large_tips = self._large_tips()  # also the next step's tips
            if rel < params.rel_change_p1 or not large_tips:
                break
        return self.net

    def _large_tips(self) -> list[int]:
        return [
            tip
            for tip in self.net.terminal_nodes(self.domain)
            if self.net.segments[self.net.adjacency[tip][0]].radius
            > self.params.large_radius
        ]

    def run_phase2(self):
        """Grow the capillary bed, freezing saturated control volumes."""
        params = self.params
        po2_old = 0.0
        for j in range(params.max_iter_p2 + 1):
            self.solve_state()
            oxygenated = self.po2_roi > params.po2_stop  # stop before growing
            if not oxygenated:
                for tip in self.net.terminal_nodes(self.domain):
                    if self._cv_saturated(self.net.nodes[tip].position):
                        continue
                    self._extend_tip(tip, phase=2)
                self._link_all_terminals()
            self._end_step(2, j)
            change = abs(self.po2_roi - po2_old)
            po2_old = self.po2_roi
            if oxygenated or change < params.change_p2:
                break
        return self.net

    def _cv_saturated(self, position: np.ndarray) -> bool:
        """Whether `position` lies in a control volume of the roi whose
        average is above `po2_stop`; a point outside the roi is not."""
        if not self.roi.contains(position):
            return False
        n = self.params.cv_per_axis
        index = tuple(
            min(max(math.floor((x - lo) / (hi - lo) * n), 0), n - 1)
            for x, lo, hi in zip(position.tolist(), self.roi.lower.tolist(),
                                 self.roi.upper.tolist())
        )
        return bool(self.cv_field[index] > self.params.po2_stop)

    def run_phase3(self):
        """Prune dead ends in the roi, re-link, and clip to the roi."""
        params = self.params
        for j in range(params.max_iter_p3 + 1):
            for tip in self.net.terminal_nodes(self.domain):
                if tip not in self.net.nodes:
                    continue  # dropped with the other end of an isolated segment
                if self.roi.contains(self.net.nodes[tip].position):
                    sid = self.net.adjacency[tip][0]
                    self.octants.remove(sid)
                    self.net.remove_segment(sid)
            self._link_all_terminals()
            self._end_step(3, j)
            if self.interior_terminal_count() < params.p3_terminal_stop:
                break
        self.net = clip_to_box(self.net, self.roi)
        return self.net

    def interior_terminal_count(self) -> int:
        return sum(
            1
            for tip in self.net.terminal_nodes(self.domain)
            if self.roi.contains(self.net.nodes[tip].position)
        )

    def _end_step(self, phase: int, step: int):
        self.steps.append((phase, step, self.po2_roi))
        if self.checkpoint is not None:
            self.checkpoint(phase, step, self.net, self.po2_roi)


def clip_to_box(net: VascularNetwork, box: DomainBox) -> VascularNetwork:
    """Geometric intersection of the network with a box.

    Segments with both endpoints inside are kept; segments crossing the
    boundary are truncated at the face, the cut point becoming a boundary
    node carrying the nearer endpoint's boundary pressure. A segment whose
    inside end lies on the face and which leaves the box outward is dropped
    with no cut node.
    """
    out = VascularNetwork()
    table = net.table()
    contained = np.all((table.position >= box.lower) & (table.position <= box.upper), axis=1)
    in_box = dict(zip(table.node_ids.tolist(), contained.tolist()))  # by original node id
    for nid, inside in in_box.items():
        if inside:
            out.add_node(net.nodes[nid].copy())
    for sid in table.segment_ids.tolist():
        seg = net.segments[sid]
        a_in = seg.node_a in out.nodes
        b_in = seg.node_b in out.nodes
        if a_in and b_in:
            out.add_segment(seg.copy())
        elif a_in or b_in:
            inside = seg.node_a if a_in else seg.node_b
            outside = seg.node_b if a_in else seg.node_a
            p_in = net.nodes[inside].position
            p_out = net.nodes[outside].position
            t = _box_exit_parameter(p_in, p_out, box)
            cut = p_in + t * (p_out - p_in)
            # onto the face, where rounding may leave the cut just outside;
            # p_in lies outside only where an earlier cut node took the id of
            # a dropped node, a defect whose fix changes the recorded growth
            # answers (ROADMAP)
            if in_box[inside]:
                cut = np.clip(cut, box.lower, box.upper)
            if float(np.linalg.norm(cut - p_in)) == 0.0:
                continue
            donor = net.nodes[inside] if t < 0.5 else net.nodes[outside]
            cut_node = out.new_node(
                cut,
                kind="boundary" if donor.boundary_pressure is not None else "inner",
                boundary_pressure=donor.boundary_pressure,
            )
            out.add_segment(Segment(sid, inside, cut_node.id, seg.radius))
    return out


def _box_exit_parameter(p_in: np.ndarray, p_out: np.ndarray, box: DomainBox):
    """Parameter t in (0, 1] where the ray p_in -> p_out leaves the box."""
    t = 1.0
    delta = p_out - p_in
    for axis in range(3):
        if delta[axis] > 0 and p_out[axis] > box.upper[axis]:
            t = min(t, (box.upper[axis] - p_in[axis]) / delta[axis])
        elif delta[axis] < 0 and p_out[axis] < box.lower[axis]:
            t = min(t, (box.lower[axis] - p_in[axis]) / delta[axis])
    return max(t, 0.0)
