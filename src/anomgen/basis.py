"""Utility-function bases: rescaled polynomials and monotone I-splines.

Payoffs are affinely rescaled to [0, 1] before evaluation, which keeps
polynomial conditioning sane at order 6 and puts I-spline meshes on a fixed
unit interval.  I-splines follow Ramsay (Statist. Sci. 3(4), 1988): a
member of degree k is the integral of an M-spline, in closed form the
running sum of the order-(k+1) B-splines from the member's index on.  Those
B-splines come from one array recursion over all members at once.
"""

from __future__ import annotations

import numpy as np

DOMAIN_TOL = 1e-9


def _domain(domain) -> tuple[float, float]:
    """``domain`` as floats (low, high); high <= low is a ValueError."""
    low, high = float(domain[0]), float(domain[1])
    if not high > low:
        raise ValueError("degenerate payoff domain")
    return low, high


def domain_fault(Z, domain: tuple[float, float]) -> tuple[int, str] | None:
    """(row, why) of the first row of a payoff stack Z (R, ...) with a payoff
    more than DOMAIN_TOL outside ``domain``, or NaN; else None."""
    low, high = domain
    inside = (Z >= low - DOMAIN_TOL) & (Z <= high + DOMAIN_TOL)
    outside = ~inside.reshape(len(Z), -1).all(axis=1)
    if not outside.any():
        return None
    return int(np.argmax(outside)), f"payoff outside basis domain [{low}, {high}]"


def _rescale(z, domain: tuple[float, float]) -> np.ndarray:
    """Payoffs ``z`` as a 1-d array rescaled from ``domain`` to [0, 1]; one
    outside the domain (``domain_fault``) is a ValueError."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if fault := domain_fault(z[None], domain):
        raise ValueError(fault[1])
    low, high = domain
    return (np.clip(z, low, high) - low) / (high - low)


class PolynomialBasis:
    """(t, t^2, ..., t^K) on the rescaled coordinate t = (z - low)/(high - low)."""

    kind = "polynomial"

    def __init__(self, order: int = 6, domain=(0.0, 10.0)):
        if order < 1:
            raise ValueError("polynomial order must be >= 1")
        self.order = order
        self.domain = _domain(domain)

    @property
    def dim(self) -> int:
        return self.order

    def eval(self, z) -> np.ndarray:
        t = _rescale(z, self.domain)
        powers = np.arange(1, self.order + 1)
        return t[:, None] ** powers[None, :]

    def config_dict(self) -> dict:
        return {"kind": "polynomial", "order": self.order, "domain": list(self.domain)}


class ISplineBasis:
    """Monotone I-spline family: q equally spaced mesh points, given degree.

    Members are nondecreasing, 0 at the domain low end and 1 at the high end;
    the family has q + degree - 2 members.
    """

    kind = "ispline"

    def __init__(self, knots: int = 10, degree: int = 3, domain=(0.0, 10.0)):
        if knots < 2:
            raise ValueError("need at least two mesh points")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.n_knots = knots
        self.degree = degree
        self.domain = _domain(domain)
        mesh = np.linspace(0.0, 1.0, knots)
        k = degree
        # Order-(k+1) knot sequence used by the closed-form I-spline sum.
        self._knots = np.concatenate([np.zeros(k + 1), mesh[1:-1], np.ones(k + 1)])

    @property
    def dim(self) -> int:
        return self.n_knots + self.degree - 2

    def eval(self, z) -> np.ndarray:
        t = _rescale(z, self.domain)[:, None]
        k, knots = self.degree, self._knots
        # Order-1 M-splines: the indicator of [t_i, t_{i+1}) over its width,
        # 0 on a zero-width interval; then Ramsay's recursion up to order k+1.
        width = np.diff(knots)
        inside = (t >= knots[:-1]) & (t < knots[1:])
        M = np.divide(inside, width, out=np.zeros(inside.shape), where=width > 0)
        for r in range(2, k + 2):
            span = knots[r:] - knots[:-r]
            c = np.divide(r, (r - 1) * span, out=np.zeros(span.shape), where=span > 0)
            M = c * ((t - knots[:-r]) * M[:, :-1] + (knots[r:] - t) * M[:, 1:])
        # Order-(k+1) B-splines: a payoff in interval j (t_j <= t < t_{j+1},
        # 1-based) has nonzero columns only among j-k-1 .. j-1, +0.0 elsewhere.
        B = (knots[k + 1:] - knots[:-k - 1]) * M / (k + 1)
        # Member i (1-based) is the sum of B[:, i:] in index order: the k + 1
        # columns from i hold every nonzero one where i >= j - k (none where
        # i >= j, giving +0.0), and the member is exactly 1 where i < j - k.
        # Adding whole columns keeps each payoff's order of additions whatever
        # the number of payoffs; ``sum(axis=1)`` sums one payoff's row
        # pairwise, so eval([z]) would differ in the last bit from z in a batch.
        sums = B[:, 1:].copy()
        for d in range(1, k + 1):
            sums[:, :-d] += B[:, 1 + d:]
        j = np.searchsorted(knots, t, side="right")
        return np.where(np.arange(1, self.dim + 1) < j - k, 1.0, sums)

    def config_dict(self) -> dict:
        return {"kind": "ispline", "knots": self.n_knots, "degree": self.degree,
                "domain": list(self.domain)}


# The basis kinds, the first the default; a kind's defaults are its
# constructor's (``cls().config_dict()``).
BASES = (PolynomialBasis, ISplineBasis)


def basis_from_config(cfg: dict):
    """Build a basis from its JSON description: ``kind`` names the class, and
    the other keys are its constructor's arguments (a key it does not take
    raises ``TypeError``)."""
    cfg = dict(cfg)
    kind = cfg.pop("kind")
    for cls in BASES:
        if cls.kind == kind:
            return cls(**cfg)
    raise ValueError(f"unknown basis kind {kind!r}")
