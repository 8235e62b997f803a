"""Gauss-Legendre quadrature on the reference element [-1, 1].

Nodes and weights are computed by Newton iteration on the Legendre
polynomials (no tabulated constants). Nodes are mirrored around 0 so that
symmetric sums cancel exactly in floating point.
"""

from functools import lru_cache

import numpy as np

MAX_POINTS = 10


class QuadRule:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n-1.

    ``weights`` sum to 2 (the reference measure).
    """

    def __init__(self, n, nodes, weights):
        self.n = n
        self.nodes = nodes
        self.weights = weights
        for a in (self.nodes, self.weights):
            a.flags.writeable = False

    def __repr__(self):
        return f"QuadRule(n={self.n})"


def _legendre_and_derivative(n, x):
    # three-term recurrence; returns (P_n(x), P_n'(x))
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule:
    """Build the n-point rule, 1 <= n <= 10."""
    if not isinstance(n, (int, np.integer)) or not (1 <= n <= MAX_POINTS):
        raise ValueError(f"unsupported quadrature order n={n}; need integer in [1, {MAX_POINTS}]")
    if n == 1:
        return QuadRule(1, np.array([0.0]), np.array([2.0]))
    # positive-half roots from Chebyshev-like initial guesses
    i = np.arange(1, n // 2 + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _legendre_and_derivative(n, x)
    if np.max(np.abs(p)) > 1e-14:
        raise RuntimeError(f"Newton iteration for gauss_rule({n}) did not converge")
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2 == 1:
        _, dp0 = _legendre_and_derivative(n, np.array([0.0]))
        w0 = 2.0 / (dp0 * dp0)
        nodes = np.concatenate([-x, [0.0], x[::-1]])
        weights = np.concatenate([w_half, w0, w_half[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w_half, w_half[::-1]])
    return QuadRule(n, nodes, weights)
