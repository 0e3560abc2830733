"""Float columns as text: the number format of every CSV and PLY writer."""

import numpy as np

# Below this many values one repr per value costs less than finding the
# distinct values first (np.unique has a fixed cost of about 15 us).
DEDUPE_MIN_SIZE = 128


def repr_column(values, nan="nan") -> list:
    """repr(float(v)) of each value of an array, flattened, with `nan` for NaN.

    From DEDUPE_MIN_SIZE values on, each distinct bit pattern is formatted
    once and the text looked up per value, so a column with few distinct
    values (grid coordinates, quantized heights) costs one sort rather than
    a repr per value. Bit patterns keep -0.0 apart from 0.0, so the text is
    exactly what repr gives.
    """
    values = np.ascontiguousarray(values, dtype=float).ravel()
    if values.size < DEDUPE_MIN_SIZE:
        return [nan if v != v else repr(v) for v in values.tolist()]
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [nan if v != v else repr(v) for v in distinct.view(float).tolist()]
    return list(map(text.__getitem__, inverse.tolist()))
