"""ASCII PLY point clouds: the one writer behind every .ply output."""

from .columns import write_rows


def write_points(points, path):
    """Write (x, y, z) points as an ASCII PLY vertex list. points is one
    write_rows column: an (N, 3) float array, or the (table, codes) pair of
    one that text_column encoded, with (N, 3) codes."""
    n = len(points[1] if isinstance(points, tuple) else points)
    with open(path, "wb") as fh:
        fh.write(
            b"ply\nformat ascii 1.0\n"
            b"element vertex %d\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n" % n
        )
        write_rows(fh, [points], sep=" ")
