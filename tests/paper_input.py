"""A deterministic paper-scale input: large vessels entering the region of
interest through four of its faces.

Each of the x-low, x-high, y-low and y-high faces of the roi carries
`per_axis` x `per_axis` roots, at the fractions (i + 1/2) / per_axis of the
face along its two other axes, taken in increasing axis order (the lower
axis in the outer loop). Every root is a boundary node with its face's
pressure, joined to one interior node `stub` inward along the face normal
by a segment of radius `radius`. Nodes are numbered face by face, root
then stub end.

With the defaults (3 x 3 roots of 15 um, 60 um stubs, 9000, 3000, 8500 and
3500 Pa) on the default roi, grown by `cli._run_generation` on a 40x40x50
grid with seed 0, phases 1-2 end with 8,551 segments and 6,988 nodes.

    PYTHONPATH=src python3 tests/paper_input.py paper.dgf   # write it as DGF
"""

import sys

import numpy as np

from microvasc import RunConfig, VascularNetwork, serialize_dgf

UM = 1e-6
# (axis, side) of each root face and its pressure, Pa
FACE_PRESSURES = {(0, 0): 9000.0, (0, 1): 3000.0, (1, 0): 8500.0, (1, 1): 3500.0}


def make_paper_network(
    roi=None, per_axis=3, radius=15 * UM, stub=60 * UM, pressures=FACE_PRESSURES
):
    roi = roi or RunConfig().roi_box()
    lower, extent = roi.lower, roi.extent
    fractions = (np.arange(per_axis) + 0.5) / per_axis
    net = VascularNetwork()
    for (axis, side), pressure in pressures.items():
        first, second = (a for a in range(3) if a != axis)
        inward = np.zeros(3)
        inward[axis] = 1.0 if side == 0 else -1.0
        for f in fractions:
            for g in fractions:
                position = lower.copy()
                position[axis] += side * extent[axis]
                position[first] += f * extent[first]
                position[second] += g * extent[second]
                root = net.new_node(position, kind="boundary", boundary_pressure=pressure)
                tip = net.new_node(position + stub * inward)
                net.new_segment(root.id, tip.id, radius)
    return net


if __name__ == "__main__":
    with open(sys.argv[1], "w") as out:
        out.write(serialize_dgf(make_paper_network()))
