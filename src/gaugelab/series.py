"""The alternating harmonic series: conditional convergence in one table.

Kept apart from `catalog` so that `gaugelab series` loads no integrator.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import MAX_LEVEL, ArgumentError


def conditional_series(n: int) -> Tuple[float, float, float]:
    """Partial sums of sum (-1)^j / j and of its positive and negative parts.

    The full series drifts toward -ln 2 while the split parts grow like
    half-harmonic sums: cancelation, not absolute smallness, is what
    converges here.  At most 2**MAX_LEVEL terms, the size of the deepest
    grid, are summed; more raise before any array is made.
    """
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    if n > 2 ** MAX_LEVEL:
        raise ArgumentError(f"need n <= 2**MAX_LEVEL = {2 ** MAX_LEVEL}, got {n}")
    j = np.arange(1, n + 1, dtype=np.float64)
    terms = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0) / j
    partial = float(np.sum(terms))
    positive = float(np.sum(terms[terms > 0]))
    negative = float(np.sum(terms[terms < 0]))
    return partial, positive, negative
