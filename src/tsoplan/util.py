"""Small shared helpers.

The cost-model formulas take either plain ints or numpy arrays of
candidates.  ``ceil_div`` works on both as written; ``minimum`` and
``select`` stay in plain Python for int and bool operands, so scalar
callers never touch numpy.
"""

from __future__ import annotations

import numpy as np


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def minimum(a, b):
    """Smaller of a and b; elementwise unless both are plain ints."""
    if type(a) is int and type(b) is int:
        return a if a < b else b
    return np.minimum(a, b)


def select(cond, a, b):
    """a where cond holds, else b; elementwise unless cond is a plain bool."""
    if type(cond) is bool:
        return a if cond else b
    return np.where(cond, a, b)
