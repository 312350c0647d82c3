"""Small central-difference toolkit for derivatives of scalar callables.
Nothing here knows about the model; the validation suites use it as the
oracle the root search's multiplicities are checked against. A stencil is a
few points, so it is formed in Python floats, without numpy."""
from __future__ import annotations

import math
import sys
from typing import Callable

_EPS = sys.float_info.epsilon


def _central_diff(f: Callable[[float], float], x: float, order: int, h: float):
    """Raw central difference of given order with spacing h.

    Evaluation points are x + (order/2 - k)*h, symmetric around x
    (half-integer offsets when order is odd), weighted by the alternating
    binomials of the order-th forward difference. Returns the difference
    quotient and the max |f| seen on the stencil.
    """
    vals = [float(f(x + (order / 2.0 - k) * h)) for k in range(order + 1)]
    total = sum((-1) ** k * math.comb(order, k) * value for k, value in enumerate(vals))
    return total / h**order, max(map(abs, vals))


def derivative_is_zero(
    f: Callable[[float], float],
    x: float,
    order: int,
    rel_tol: float = 1e-5,
) -> tuple[bool, float]:
    """Decide whether the order-th derivative of f vanishes at x.

    The estimate takes central differences at steps h and h/2, with
    h = max(1, |x|) * eps^(1/(order + 4)) balancing truncation against the
    roundoff floor (it grows with the order because the difference shrinks
    like h^order), and one level of Richardson extrapolation. That removes
    the O(h^2) truncation term, which would otherwise masquerade as a
    nonzero value when the leading derivative vanishes.

    The test compares the raw difference (derivative * h^order / order!),
    which carries only O(eps * stencil_scale) of roundoff, against
    rel_tol * stencil_scale, the stencil scale being the largest |f| seen.
    This is scale-free in f and immune to the h^(-order) noise blowup that
    plagues thresholding the derivative itself.

    Returns (is_zero, derivative_estimate).
    """
    h = max(1.0, abs(x)) * _EPS ** (1.0 / (order + 4))
    d_h, m_h = _central_diff(f, x, order, h)
    d_h2, m_h2 = _central_diff(f, x, order, h / 2.0)
    # error model d(h) = d + C h^2 + O(h^4)
    d, m = (4.0 * d_h2 - d_h) / 3.0, max(m_h, m_h2)
    magnitude = abs(d) * h**order / math.factorial(order)
    if m == 0.0:
        return abs(d) == 0.0, d
    return magnitude <= rel_tol * m, d


__all__ = ["derivative_is_zero"]
