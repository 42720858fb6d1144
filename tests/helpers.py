"""Helpers shared by the test modules."""

import numpy as np
from scipy.optimize import linear_sum_assignment


def multiset_match(left, right, match_tol: float) -> bool:
    """True when two complex multisets agree within ``match_tol`` under the
    optimal pairing."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.size != right.size:
        return False
    if left.size == 0:
        return True
    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(np.all(cost[rows, cols] <= match_tol))
