"""Stochastic three-phase generation of surrogate microvascular networks.

Phase 1 grows the large vessels (radius > 4.5 um) from the terminal nodes
of the segmented tree, phase 2 fills in the capillary bed and links tips
into the surrounding network, phase 3 prunes dead ends inside the region
of interest. Growth direction follows the local tissue oxygen gradient,
radii follow Murray's law at bifurcations, and every candidate vessel is
collision-checked against the existing network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .flow import FlowParameters, assemble_flow_system, solve_flow
from .grid import SurfaceCoupling, TissueGrid, build_surface_coupling
from .network import (
    DomainBox,
    NetworkNode,
    Segment,
    VascularNetwork,
    classify_arterial_venous,
)
from .oxygen import OxygenParameters, assemble_transport_operator, solve_oxygen
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
        if not 0.0 < self.p_th < 1.0:
            raise ValidationError("bifurcation threshold must lie in (0, 1)")
        if not 2.0 <= self.gamma <= 4.0:
            raise ValidationError("Murray exponent must lie in [2, 4]")


# -- geometry primitives -------------------------------------------------


def segment_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between 3D line segments a0-a1 and b0-b1."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    b0 = np.asarray(b0, float)
    b1 = np.asarray(b1, float)
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    eps = 1e-30
    if a <= eps and e <= eps:
        return float(np.linalg.norm(r))
    if a <= eps:
        s, t = 0.0, np.clip(f / e, 0.0, 1.0)
    else:
        c = d1 @ r
        if e <= eps:
            s, t = np.clip(-c / a, 0.0, 1.0), 0.0
        else:
            b = d1 @ d2
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 0 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    closest1 = a0 + s * d1
    closest2 = b0 + t * d2
    return float(np.linalg.norm(closest1 - closest2))


def _rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v about the unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * (axis @ v) * (1.0 - c)


# -- octant spatial index ------------------------------------------------


class OctantIndex:
    """Eight sub-boxes of the domain holding segment id lists.

    Segments are registered in every octant their radius-inflated bounding
    box overlaps; queries inflate the candidate box by the candidate radius
    plus the largest registered radius, so the octant decision is always
    identical to the brute-force pairwise decision.
    """

    def __init__(self, domain: DomainBox):
        self.domain = domain
        self.center = domain.center
        self.members: list[set[int]] = [set() for _ in range(8)]
        self.max_radius = 0.0

    def _octants_for_box(self, lo, hi):
        out = []
        for code in range(8):
            ok = True
            for axis in range(3):
                if code >> axis & 1:
                    if hi[axis] < self.center[axis]:
                        ok = False
                        break
                else:
                    if lo[axis] > self.center[axis]:
                        ok = False
                        break
            if ok:
                out.append(code)
        return out

    def insert(self, seg_id: int, p0, p1, radius: float):
        lo = np.minimum(p0, p1) - radius
        hi = np.maximum(p0, p1) + radius
        for code in self._octants_for_box(lo, hi):
            self.members[code].add(seg_id)
        self.max_radius = max(self.max_radius, radius)

    def remove(self, seg_id: int):
        for cell in self.members:
            cell.discard(seg_id)

    def candidates(self, p0, p1, radius: float) -> set[int]:
        pad = radius + self.max_radius
        lo = np.minimum(p0, p1) - pad
        hi = np.maximum(p0, p1) + pad
        out: set[int] = set()
        for code in self._octants_for_box(lo, hi):
            out |= self.members[code]
        return out

    @classmethod
    def build(cls, domain: DomainBox, net: VascularNetwork) -> "OctantIndex":
        index = cls(domain)
        for sid in net.segments:
            p0, p1 = net.segment_endpoints(sid)
            index.insert(sid, p0, p1, net.segments[sid].radius)
        return index


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
    inequality dist < R_new + R_k.
    """
    for sid in octants.candidates(p0, p1, radius):
        if sid not in net.segments:
            continue
        seg = net.segments[sid]
        if seg.node_a in attached_nodes or seg.node_b in attached_nodes:
            continue
        q0, q1 = net.segment_endpoints(sid)
        if segment_distance(p0, p1, q0, q1) < radius + seg.radius:
            return True
    return False


def check_and_insert(
    net: VascularNetwork,
    octants: OctantIndex,
    tip_node: int,
    new_position: np.ndarray,
    radius: float,
):
    """Collision-check a new vessel from an existing node; insert if clear.

    Returns the created Segment, or None if the candidate was rejected.
    The new endpoint inherits the tip's boundary data.
    """
    p0 = net.nodes[tip_node].position
    if collides(net, octants, p0, new_position, radius, {tip_node}):
        return None
    old = net.nodes[tip_node]
    node = net.new_node(
        new_position,
        kind=old.kind,
        boundary_pressure=old.boundary_pressure,
        boundary_po2=old.boundary_po2,
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
    parent_radius: float, gamma: float, rng: np.random.Generator,
    params: GrowthParameters,
) -> tuple[float, float]:
    """Two branch radii around the symmetric Murray radius 2^(-1/gamma)*R.

    Each is drawn from Normal(R_c, R_c/divisor), truncated to (0, parent].
    """
    if parent_radius <= 0.0:
        raise ValidationError("parent radius must be positive")
    r_c = 2.0 ** (-1.0 / gamma) * parent_radius
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

    Returns (d_b1, d_b2, kept_index) with kept_index in {0, 1} naming the
    non-relaxed branch.
    """
    d_k = np.asarray(d_k, float)
    d_g = np.asarray(d_g, float)
    n_p = np.cross(d_k, d_g)
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


# -- control-volume averages ---------------------------------------------


def _axis_overlaps(grid_lo, spacing, n_cells, roi_lo, roi_hi, n_cv):
    """(n_cells, n_cv) matrix of interval overlap lengths along one axis."""
    cv_edges = np.linspace(roi_lo, roi_hi, n_cv + 1)
    cell_lo = grid_lo + spacing * np.arange(n_cells)
    cell_hi = cell_lo + spacing
    lo = np.maximum(cell_lo[:, None], cv_edges[None, :-1])
    hi = np.minimum(cell_hi[:, None], cv_edges[None, 1:])
    return np.maximum(hi - lo, 0.0)


def control_volume_averages(
    po2_t: np.ndarray, grid: TissueGrid, roi: DomainBox, n_per_axis: int = 4
):
    """Volume-weighted average oxygen per control volume and over the roi.

    Grid cells partially covered by a control volume contribute with their
    geometric overlap volume, so the control volumes tile the roi exactly.
    Returns (cv_averages with shape (n,n,n) indexed [ix, iy, iz], po2_roi).
    """
    nx, ny, nz = grid.cells_per_axis
    ox = _axis_overlaps(grid.box.lower[0], grid.spacing[0], nx, roi.lower[0],
                        roi.upper[0], n_per_axis)
    oy = _axis_overlaps(grid.box.lower[1], grid.spacing[1], ny, roi.lower[1],
                        roi.upper[1], n_per_axis)
    oz = _axis_overlaps(grid.box.lower[2], grid.spacing[2], nz, roi.lower[2],
                        roi.upper[2], n_per_axis)
    p = po2_t.reshape((nz, ny, nx))
    # weighted sums: value[cx,cy,cz] = sum_{ijk} p[k,j,i] ox[i,cx] oy[j,cy] oz[k,cz]
    weighted = np.einsum("kji,ix,jy,kz->xyz", p, ox, oy, oz, optimize=True)
    volume = np.einsum("ix,jy,kz->xyz", ox, oy, oz, optimize=True)
    with np.errstate(invalid="ignore"):
        averages = np.where(volume > 0.0, weighted / np.maximum(volume, 1e-300), 0.0)
    po2_roi = float(np.sum(weighted) / np.sum(volume))
    return averages, po2_roi


# -- growth engine -------------------------------------------------------


@dataclass
class BifurcationRecord:
    parent_direction: np.ndarray
    plane_normal: np.ndarray
    kept_direction: np.ndarray
    kept_angle: float
    angles_clamped: bool


@dataclass
class PhaseTrace:
    iterations: int = 0
    po2_roi: list[float] = field(default_factory=list)


class GrowthEngine:
    """Runs the three growth phases on one network with one seeded RNG."""

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
        self.bifurcations: list[BifurcationRecord] = []
        self.traces = {1: PhaseTrace(), 2: PhaseTrace(), 3: PhaseTrace()}

    # -- solving --------------------------------------------------------

    def solve_state(self):
        """Flow + oxygen solve on the current network."""
        coupling = build_surface_coupling(self.grid, self.net)
        system = assemble_flow_system(
            self.net, self.grid, coupling, self.rheology, self.flow_params
        )
        self.flow = solve_flow(system)
        if any(
            self.net.nodes[nid].boundary_po2 is None
            for nid in self.net.boundary_nodes()
        ):
            classify_arterial_venous(self.net, self.flow)
        operator = assemble_transport_operator(
            self.net, self.grid, coupling, self.flow, self.flow_params,
            self.oxygen_params,
        )
        guess = self._initial_guess(operator)
        self.oxygen = solve_oxygen(operator, self.oxygen_params, guess)
        self.cv_field, self.po2_roi = control_volume_averages(
            self.oxygen.po2_t, self.grid, self.roi, self.params.cv_per_axis
        )
        return self.flow, self.oxygen

    def _initial_guess(self, operator):
        if self.oxygen is None:
            return None
        guess = np.zeros(operator.base.shape[0])
        guess[: self.grid.n_cells] = self.oxygen.po2_t
        for nid in operator.net.nodes:
            prev = self.oxygen.po2_v.get(nid)
            if prev is None:
                node = operator.net.nodes[nid]
                prev = node.boundary_po2 if node.boundary_po2 is not None else 38.0
            guess[operator.node_index[nid]] = prev
        return guess

    def po2_gradient(self, position: np.ndarray) -> np.ndarray:
        """Central differences of the cell field at the containing cell."""
        cell, _ = self.grid.locate(position)
        i, j, k = self.grid.linear_to_ijk(cell)
        nx, ny, nz = self.grid.cells_per_axis
        p = self.oxygen.po2_t.reshape((nz, ny, nx))
        grad = np.zeros(3)
        for comp, (idx, count, h) in enumerate(
            zip((i, j, k), (nx, ny, nz), self.grid.spacing)
        ):
            lo = max(idx - 1, 0)
            hi = min(idx + 1, count - 1)
            sel = [i, j, k]
            sel[comp] = hi
            vh = p[sel[2], sel[1], sel[0]]
            sel[comp] = lo
            vl = p[sel[2], sel[1], sel[0]]
            grad[comp] = (vh - vl) / ((hi - lo) * h) if hi > lo else 0.0
        return grad

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

    def _extend_tip(self, tip: int, phase: int) -> bool:
        """Grow a single vessel or a bifurcation at one terminal node.

        Returns True if at least one vessel was attached.
        """
        seg, d_k = self._tip_segment(tip)
        parent_radius = seg.radius
        r = sample_length_ratio(self.rng, self.params)
        grad = self.po2_gradient(self.net.nodes[tip].position)
        d_g = growth_direction(grad, d_k, self.params.lambda_g)
        attached = False
        if bifurcation_decision(r, self.params):
            r_b1, r_b2 = murray_branch_radii(
                parent_radius, self.params.gamma, self.rng, self.params
            )
            r_b1 = self._child_radius(r_b1, parent_radius, phase)
            r_b2 = self._child_radius(r_b2, parent_radius, phase)
            phi1, phi2, clamped = bifurcation_angles(parent_radius, r_b1, r_b2)
            d_b1, d_b2, kept, n_p = build_bifurcation_directions(
                d_k, d_g, phi1, phi2, self.rng
            )
            lengths = (
                parent_radius * sample_length_ratio(self.rng, self.params),
                parent_radius * sample_length_ratio(self.rng, self.params),
            )
            created = []
            for direction, length, radius in zip(
                (d_b1, d_b2), lengths, (r_b1, r_b2)
            ):
                created.append(self._try_attach(tip, direction, length, radius))
            if any(c is not None for c in created):
                attached = True
                kept_created = created[kept] is not None
                if kept_created:
                    self.bifurcations.append(
                        BifurcationRecord(
                            parent_direction=d_k,
                            plane_normal=n_p,
                            kept_direction=(d_b1, d_b2)[kept],
                            kept_angle=(phi1, phi2)[kept],
                            angles_clamped=clamped,
                        )
                    )
        else:
            radius = self._child_radius(parent_radius, parent_radius, phase)
            if self._try_attach(tip, d_g, parent_radius * r, radius) is not None:
                attached = True
        if attached:
            self._demote_tip(tip)
        return attached

    def _demote_tip(self, tip: int):
        """A tip that received children becomes an interior junction."""
        node = self.net.nodes[tip]
        node.kind = "inner"
        node.boundary_pressure = None
        node.boundary_po2 = None
        node.is_root = False

    # -- linking ----------------------------------------------------------

    def _link_terminal(self, tip: int) -> bool:
        """Connect one terminal node to a nearby node inside the cone.

        Candidates within the cone and inside the drawn search distance are
        ranked by normalized pressure difference minus normalized distance;
        the best collision-free candidate wins.
        """
        seg, d_tip = self._tip_segment(tip)
        x = self.net.nodes[tip].position
        d_x = self.rng.normal(self.params.link_mu, self.params.link_sigma)
        if d_x <= 0.0:
            return False
        cos_half = math.cos(self.params.cone_angle / 2.0)
        p_x = self.flow.p_v.get(tip) if self.flow else None
        candidates = []
        for nid in sorted(self.net.nodes):
            if nid == tip or nid in (seg.node_a, seg.node_b):
                continue
            delta = self.net.nodes[nid].position - x
            dist = float(np.linalg.norm(delta))
            if dist == 0.0 or dist > d_x:
                continue
            if (delta / dist) @ d_tip < cos_half:
                continue
            dp = 0.0
            if p_x is not None and nid in self.flow.p_v:
                dp = abs(self.flow.p_v[nid] - p_x)
            candidates.append((nid, dist, dp))
        if not candidates:
            return False
        dp_max = max(c[2] for c in candidates)
        scored = sorted(
            candidates,
            key=lambda c: (-((c[2] / dp_max if dp_max > 0 else 0.0) - c[1] / d_x),
                           c[0]),
        )
        for nid, dist, _ in scored:
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
            return True
        return False

    def _link_all_terminals(self):
        linked = 0
        for tip in self.net.terminal_nodes(self.domain):
            if self._link_terminal(tip):
                linked += 1
        return linked

    # -- phases -----------------------------------------------------------

    def run_phase1(self):
        """Grow large vessels until the oxygen field stops changing."""
        params = self.params
        trace = self.traces[1]
        po2_old = 0.0
        for j in range(params.max_iter_p1 + 1):
            self.solve_state()
            trace.po2_roi.append(self.po2_roi)
            large_tips = [
                tip
                for tip in self.net.terminal_nodes(self.domain)
                if self.net.segments[self.net.adjacency[tip][0]].radius
                > params.large_radius
            ]
            for tip in large_tips:
                self._extend_tip(tip, phase=1)
            trace.iterations = j + 1
            n_large = sum(
                1
                for tip in self.net.terminal_nodes(self.domain)
                if self.net.segments[self.net.adjacency[tip][0]].radius
                > params.large_radius
            )
            self._emit_checkpoint(1, j)
            rel = abs(self.po2_roi - po2_old) / self.po2_roi if self.po2_roi else 1.0
            po2_old = self.po2_roi
            if rel < params.rel_change_p1 or j >= params.max_iter_p1 or n_large == 0:
                break
        return self.net

    def run_phase2(self):
        """Grow the capillary bed, freezing saturated control volumes."""
        params = self.params
        trace = self.traces[2]
        po2_old = 0.0
        for j in range(params.max_iter_p2 + 1):
            self.solve_state()
            trace.po2_roi.append(self.po2_roi)
            if self.po2_roi > params.po2_stop:
                trace.iterations = j + 1
                self._emit_checkpoint(2, j)
                break
            for tip in self.net.terminal_nodes(self.domain):
                if self._cv_saturated(self.net.nodes[tip].position):
                    continue
                self._extend_tip(tip, phase=2)
            self._link_all_terminals()
            trace.iterations = j + 1
            self._emit_checkpoint(2, j)
            change = abs(self.po2_roi - po2_old)
            po2_old = self.po2_roi
            if change < params.change_p2 or j >= params.max_iter_p2:
                break
        return self.net

    def _cv_saturated(self, position: np.ndarray) -> bool:
        if not self.roi.contains(position):
            return False
        n = self.params.cv_per_axis
        rel = (position - self.roi.lower) / self.roi.extent * n
        ix, iy, iz = np.clip(np.floor(rel).astype(int), 0, n - 1)
        return self.cv_field[ix, iy, iz] > self.params.po2_stop

    def run_phase3(self):
        """Prune dead ends in the roi, re-link, and clip to the roi."""
        params = self.params
        trace = self.traces[3]
        for j in range(params.max_iter_p3 + 1):
            for tip in self.net.terminal_nodes(self.domain):
                if tip not in self.net.nodes:
                    continue  # dropped with the other end of an isolated segment
                if self.roi.contains(self.net.nodes[tip].position):
                    sid = self.net.adjacency[tip][0]
                    self.octants.remove(sid)
                    self.net.remove_segment(sid)
            self._link_all_terminals()
            trace.iterations = j + 1
            n_term = sum(
                1
                for tip in self.net.terminal_nodes(self.domain)
                if self.roi.contains(self.net.nodes[tip].position)
            )
            self._emit_checkpoint(3, j)
            if n_term < params.p3_terminal_stop or j >= params.max_iter_p3:
                break
        self.net = clip_to_box(self.net, self.roi)
        return self.net

    def interior_terminal_count(self) -> int:
        return sum(
            1
            for tip in self.net.terminal_nodes(self.domain)
            if self.roi.contains(self.net.nodes[tip].position)
        )

    def total_iterations(self) -> int:
        return sum(t.iterations for t in self.traces.values())

    def _emit_checkpoint(self, phase: int, step: int):
        if self.checkpoint is not None:
            self.checkpoint(phase, step, self.net, self.po2_roi)


def clip_to_box(net: VascularNetwork, box: DomainBox) -> VascularNetwork:
    """Geometric intersection of the network with a box.

    Segments with both endpoints inside are kept; segments crossing the
    boundary are truncated at the face, the cut point becoming a boundary
    node carrying the nearer endpoint's data.
    """
    out = VascularNetwork()
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        if box.contains(node.position):
            out.add_node(
                NetworkNode(
                    nid, node.position.copy(), node.kind,
                    node.boundary_pressure, node.boundary_po2, node.is_root,
                )
            )
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        a_in = seg.node_a in out.nodes
        b_in = seg.node_b in out.nodes
        if a_in and b_in:
            out.add_segment(Segment(seg.id, seg.node_a, seg.node_b, seg.radius))
        elif a_in or b_in:
            inside = seg.node_a if a_in else seg.node_b
            outside = seg.node_b if a_in else seg.node_a
            p_in = net.nodes[inside].position
            p_out = net.nodes[outside].position
            t = _box_exit_parameter(p_in, p_out, box)
            cut = p_in + t * (p_out - p_in)
            donor = net.nodes[inside] if t < 0.5 else net.nodes[outside]
            cut_node = out.new_node(
                cut,
                kind="boundary" if donor.boundary_pressure is not None else "inner",
                boundary_pressure=donor.boundary_pressure,
                boundary_po2=donor.boundary_po2,
            )
            if float(np.linalg.norm(cut - p_in)) > 0.0:
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
