"""ASCII PLY point clouds: the one header and writer behind every .ply output."""

import numpy as np

from .columns import write_rows


def header(n: int) -> str:
    """The ASCII PLY header of n (x, y, z) float vertices."""
    return (
        "ply\nformat ascii 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )


def write_points(points, path):
    """Write (x, y, z) points, an (N, 3) array or a sequence of triples, as an
    ASCII PLY vertex list."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "wb") as fh:
        fh.write(header(len(pts)).encode())
        write_rows(fh, [pts], sep=" ")
