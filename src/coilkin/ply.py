"""ASCII PLY point clouds: the one writer behind every .ply output."""

import numpy as np

from .columns import write_rows


def write_points(points, path):
    """Write (x, y, z) points, an (N, 3) array or a sequence of triples, as an
    ASCII PLY vertex list."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(pts)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        write_rows(fh, [pts], sep=" ")
