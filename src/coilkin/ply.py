"""ASCII PLY point clouds: the one writer behind every .ply output."""


def write_points(points, path):
    """Write a sized sequence of (x, y, z) points as an ASCII PLY vertex list."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(points)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        for x, y, z in points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
