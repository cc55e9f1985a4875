"""Per-segment and per-sample reference assemblies of the 3D-1D exchange.

These are the loops the library used before the surface coupling became a
set of sparse operators: the scalar point location and sampling loop of
the coupling, the per-sample interpolation of a nodal field to the wall,
the flow assembly with its wall-exchange loop, its 3D-side filtration and
boundary-flux sums, and the transport assembly with the Kedem-Katchalsky
loop. Each skips the rows of Dirichlet nodes while it
assembles. The tests compare the operator-based library against them.
"""

import math
from bisect import bisect_left

import numpy as np
import scipy.sparse as sp

from microvasc.errors import ValidationError
from microvasc.rheology import segment_viscosity, vessel_conductance


# -- surface sampling ---------------------------------------------------------


def locate(grid, point):
    """Cell containing `point`, clamped to the nearest cell when outside
    the closed box."""
    point = np.asarray(point, float)
    rel = (point - grid.box.lower) / grid.spacing
    counts = np.array(grid.cells_per_axis)
    i, j, k = (int(c) for c in np.clip(np.floor(rel).astype(int), 0, counts - 1))
    clamped = bool(np.any(point < grid.box.lower) or np.any(point > grid.box.upper))
    nx, ny, _ = grid.cells_per_axis
    return i + nx * (j + ny * k), clamped


def _frame(orientation):
    helper = np.array([1.0, 0.0, 0.0])
    if abs(orientation[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(orientation, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(orientation, e1)
    return e1, e2


def surface_samples(grid, net, n_axial=None, n_angular=8):
    """{segment id: (cells, w_b = s/l, sample area, n_axial)} and the
    clamped count."""
    h_min = float(np.min(grid.spacing))
    out = {}
    clamped_samples = 0
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        length, orientation = net.segment_geometry(sid)
        x0 = net.nodes[seg.node_a].position
        na = n_axial if n_axial is not None else max(4, 2 * math.ceil(length / h_min))
        thetas = (np.arange(n_angular) + 0.5) * (2.0 * math.pi / n_angular)
        e1, e2 = _frame(orientation)
        ring_offsets = (
            seg.radius * np.cos(thetas)[:, None] * e1[None, :]
            + seg.radius * np.sin(thetas)[:, None] * e2[None, :]
        )  # (n_angular, 3)
        s_vals = (np.arange(na) + 0.5) * (length / na)
        cells = np.empty(na * n_angular, dtype=np.int64)
        s_arr = np.empty(na * n_angular)
        idx = 0
        for ia, s in enumerate(s_vals):
            ring_center = x0 + s * orientation
            for off in ring_offsets:
                cell, clamped = locate(grid, ring_center + off)
                if clamped:
                    clamped_samples += 1
                cells[idx] = cell
                s_arr[idx] = s
                idx += 1
        area = 2.0 * math.pi * seg.radius * length / (na * n_angular)
        out[sid] = (cells, s_arr / length, area, na)
    return out, clamped_samples


def wall_samples(coupling, sid):
    """Cells, weights w_b = s/l and sample area of segment sid's wall
    samples, read from the coupling's flat arrays."""
    k = bisect_left(coupling.segments.ids, sid)
    lo, hi = coupling.offsets[k], coupling.offsets[k + 1]
    return coupling.cells[lo:hi], coupling.weight[lo:hi], float(coupling.area[lo])


def project_1d_to_surface(net, nodal_field, seg_id, s):
    """Extend the 1D field to the wall ring at arc length s (linear interp)."""
    seg = net.segments[seg_id]
    length, _ = net.segment_geometry(seg_id)
    if not 0.0 <= s <= length * (1.0 + 1e-12):
        raise ValidationError(f"arc length {s} outside segment {seg_id}")
    t = min(max(s / length, 0.0), 1.0)
    return (1.0 - t) * nodal_field[seg.node_a] + t * nodal_field[seg.node_b]


# -- flow ---------------------------------------------------------------------


def _tissue_diffusion_entries(grid, mobility, rows, cols, vals):
    """Two-point-flux Laplacian on the uniform grid; Neumann outer boundary."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    face_t = [
        mobility * dy * dz / dx,
        mobility * dx * dz / dy,
        mobility * dx * dy / dz,
    ]
    idx = np.arange(grid.n_cells).reshape((nz, ny, nx))  # [k, j, i]
    for axis, t in zip((2, 1, 0), face_t):  # array axes: 2 -> x, 1 -> y, 0 -> z
        lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
        for a, b in ((lo, hi), (hi, lo)):
            rows.append(a)
            cols.append(a)
            vals.append(np.full(a.shape, t))
            rows.append(a)
            cols.append(b)
            vals.append(np.full(a.shape, -t))


def flow_system(net, grid, coupling, rheology, params):
    """(matrix, rhs) of the coupled flow system."""
    node_order = sorted(net.nodes)
    node_index = {nid: grid.n_cells + i for i, nid in enumerate(node_order)}
    n = grid.n_cells + len(node_order)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)

    mobility = params.tissue_permeability / params.interstitial_viscosity
    _tissue_diffusion_entries(grid, mobility, rows, cols, vals)

    dirichlet = {
        nid
        for nid in net.nodes
        if net.nodes[nid].kind == "boundary"
        and net.nodes[nid].boundary_pressure is not None
    }

    # 1D graph Laplacian with Poiseuille conductances
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        mu = segment_viscosity(seg.radius, rheology)
        g = vessel_conductance(seg.radius, length, mu)
        ia, ib = node_index[seg.node_a], node_index[seg.node_b]
        for p, q in ((ia, ib), (ib, ia)):
            if node_order[p - grid.n_cells] in dirichlet:
                continue
            rows.append(np.array([p, p]))
            cols.append(np.array([p, q]))
            vals.append(np.array([g, -g]))

    # Wall exchange over the shared sample set
    lp = params.wall_conductivity
    osm = params.reflection * params.oncotic_jump
    if lp > 0.0:
        for sid in sorted(net.segments):
            seg = net.segments[sid]
            cells, w_b, area = wall_samples(coupling, sid)
            la = lp * area
            w_a = 1.0 - w_b
            ia, ib = node_index[seg.node_a], node_index[seg.node_b]
            m = len(cells)
            # tissue rows: +la*p_t - la*(w_a p_a + w_b p_b) = -la*osm
            rows.append(cells)
            cols.append(cells)
            vals.append(np.full(m, la))
            rows.append(cells)
            cols.append(np.full(m, ia))
            vals.append(-la * w_a)
            rows.append(cells)
            cols.append(np.full(m, ib))
            vals.append(-la * w_b)
            np.add.at(rhs, cells, -la * osm)
            # vessel rows: node share w of  la*(Pi p_v - p_t) = la*osm,
            # with Pi p_v = w_a p_a + w_b p_b on each sample
            for node_row, w in ((ia, w_a), (ib, w_b)):
                if node_order[node_row - grid.n_cells] in dirichlet:
                    continue
                m_idx = np.full(m, node_row)
                rows.append(m_idx)
                cols.append(np.full(m, ia))
                vals.append(la * w * w_a)
                rows.append(m_idx)
                cols.append(np.full(m, ib))
                vals.append(la * w * w_b)
                rows.append(m_idx)
                cols.append(cells)
                vals.append(-la * w)
                rhs[node_row] += float(np.sum(la * w * osm))
    else:
        # decoupled 3D Neumann problem: pin one tissue cell to remove null space
        rows.append(np.array([0]))
        cols.append(np.array([0]))
        vals.append(np.array([1.0]))

    # Dirichlet rows for boundary nodes
    for nid in sorted(dirichlet):
        r = node_index[nid]
        rows.append(np.array([r]))
        cols.append(np.array([r]))
        vals.append(np.array([1.0]))
        rhs[r] = net.nodes[nid].boundary_pressure

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    v = np.concatenate(vals)
    return sp.csr_matrix((v, (r, c)), shape=(n, n)), rhs


def filtration_from_tissue_side(net, system, p_t, p_v):
    """Net exchange accumulated cell-by-cell (3D bookkeeping order)."""
    params = system.params
    per_cell = np.zeros(system.grid.n_cells)
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        cells, w_b, area = wall_samples(system.coupling, sid)
        pv_wall = (1.0 - w_b) * p_v[seg.node_a] + w_b * p_v[seg.node_b]
        jp = params.wall_conductivity * (
            (pv_wall - p_t[cells]) - params.reflection * params.oncotic_jump
        )
        np.add.at(per_cell, cells, jp * area)
    return float(np.sum(per_cell))


def boundary_fluxes(net, system, p_v, sample_jp):
    """Volumetric inflow at each Dirichlet node, wall-leak share included."""
    position = {sid: k for k, sid in enumerate(system.coupling.segments.ids)}
    out = {}
    for nid in sorted(system.dirichlet):
        flux = 0.0
        for sid in net.adjacency[nid]:
            seg = net.segments[sid]
            g = system.conductance[position[sid]]
            other = seg.node_b if nid == seg.node_a else seg.node_a
            flux += g * (p_v[nid] - p_v[other])
            _, w_b, area = wall_samples(system.coupling, sid)
            w = w_b if seg.node_b == nid else (1.0 - w_b)
            flux += float(np.sum(w * sample_jp[sid]) * area)
        out[nid] = flux
    return out


# -- oxygen -------------------------------------------------------------------


def transport_operator(net, grid, coupling, flow, flow_params, params, boundary_po2):
    """(base, rhs) of the affine oxygen transport problem, every boundary
    node pinned to its `boundary_po2` value."""
    node_order = sorted(net.nodes)
    node_index = {nid: grid.n_cells + i for i, nid in enumerate(node_order)}
    n = grid.n_cells + len(node_order)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    dirichlet = {nid: boundary_po2[nid] for nid in net.boundary_nodes()}

    _tissue_transport_entries(grid, flow, flow_params, params, rows, cols, vals)
    _vessel_transport_entries(
        net, flow, params, node_index, dirichlet, rows, cols, vals
    )
    _exchange_entries(
        net, grid, coupling, flow, flow_params, params, node_index, dirichlet,
        rows, cols, vals,
    )

    pinned = np.array([node_index[nid] for nid in sorted(dirichlet)], dtype=int)
    rows.append(pinned)
    cols.append(pinned)
    vals.append(np.ones(pinned.size))
    rhs[pinned] = [dirichlet[nid] for nid in sorted(dirichlet)]

    base = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return base, rhs


def _tissue_transport_entries(grid, flow, flow_params, params, rows, cols, vals):
    """Upwinded convection with the Darcy face velocities plus diffusion."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    areas = [dy * dz, dx * dz, dx * dy]
    diff_t = [params.diffusion_tissue * a / h for a, h in zip(areas, grid.spacing)]
    idx = np.arange(grid.n_cells).reshape((nz, ny, nx))
    mobility = flow_params.tissue_permeability / flow_params.interstitial_viscosity
    p = flow.p_t.reshape((nz, ny, nx))
    faces = [
        -mobility * np.diff(p, axis=axis) / h for axis, h in zip((2, 1, 0), grid.spacing)
    ]
    for (axis, t, area, v) in zip((2, 1, 0), diff_t, areas, faces):
        lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
        vflat = v.ravel() * area  # volumetric face flow lo -> hi
        up = np.where(vflat > 0.0, lo, hi)
        # diffusion
        for a, b in ((lo, hi), (hi, lo)):
            rows += [a, a]
            cols += [a, b]
            vals += [np.full(a.shape, t), np.full(a.shape, -t)]
        # upwinded advection: flux = vflat * po2[up], out of lo, into hi
        rows += [lo, hi]
        cols += [up, up]
        vals += [vflat, -vflat]


def _vessel_transport_entries(
    net, flow, params, node_index, dirichlet, rows, cols, vals
):
    for sid, u in zip(flow.segment_ids, flow.velocity.tolist()):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        area = math.pi * seg.radius**2
        q = u * area  # volumetric flow node_a -> node_b
        d = params.diffusion_vessel * area / length
        ia, ib = node_index[seg.node_a], node_index[seg.node_b]
        up = ia if q > 0.0 else ib
        entries = [
            (ia, ia, d), (ia, ib, -d), (ib, ib, d), (ib, ia, -d),
            (ia, up, q), (ib, up, -q),
        ]
        for r, c, v in entries:
            nid = seg.node_a if r == ia else seg.node_b
            if nid in dirichlet:
                continue
            rows.append(np.array([r]))
            cols.append(np.array([c]))
            vals.append(np.array([v]))


def _exchange_entries(
    net, grid, coupling, flow, flow_params, params, node_index, dirichlet,
    rows, cols, vals,
):
    """Kedem-Katchalsky coupling over the shared sample set.

    Per sample the flux is linear in the unknown partial pressures:
    J = (1-sigma)*J_p*(po2_v + po2_t)/2 + L*(po2_v - po2_t).
    """
    sigma = flow_params.reflection
    lpo2 = params.wall_permeability
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        cells, w_b, area = wall_samples(coupling, sid)
        w_a = 1.0 - w_b
        jp = flow.sample_jp[sid]
        adv = 0.5 * (1.0 - sigma) * jp
        cv = (adv + lpo2) * area  # coefficient on po2_v_wall
        ct = (adv - lpo2) * area  # coefficient on po2_t
        ia, ib = node_index[seg.node_a], node_index[seg.node_b]
        m = len(cells)
        # tissue rows: -J*area moved left
        rows += [cells, cells, cells]
        cols += [cells, np.full(m, ia), np.full(m, ib)]
        vals += [-ct, -cv * w_a, -cv * w_b]
        # vessel rows: +J*area, split by nodal weight
        for node_id, node_row, w in ((seg.node_a, ia, w_a), (seg.node_b, ib, w_b)):
            if node_id in dirichlet:
                continue
            m_idx = np.full(m, node_row)
            rows += [m_idx, m_idx, m_idx]
            cols += [np.full(m, ia), np.full(m, ib), cells]
            vals += [w * cv * w_a, w * cv * w_b, w * ct]
