"""Utility-function bases: rescaled polynomials and monotone I-splines.

Payoffs are affinely rescaled to [0, 1] before evaluation, which keeps
polynomial conditioning sane at order 6 and puts I-spline meshes on a fixed
unit interval.  I-splines follow Ramsay's construction: each member is the
integral of an M-spline, evaluated through the closed-form sum over M-splines
of one order higher.
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
    more than DOMAIN_TOL outside ``domain``; else None."""
    low, high = domain
    outside = ((Z < low - DOMAIN_TOL) | (Z > high + DOMAIN_TOL)).reshape(len(Z), -1).any(axis=1)
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


def _mspline_values(x: np.ndarray, knots: np.ndarray, order: int) -> np.ndarray:
    """All M-spline members of a given order on a knot sequence.

    Returns an array of shape (len(knots) - order, len(x)).  Intervals are
    half-open [t_i, t_{i+1}).
    """
    n1 = len(knots) - 1
    M = np.zeros((n1, x.size))
    for i in range(n1):
        ti, ti1 = knots[i], knots[i + 1]
        if ti1 > ti:
            M[i] = ((x >= ti) & (x < ti1)) / (ti1 - ti)
    for k in range(2, order + 1):
        nk = len(knots) - k
        Mk = np.zeros((nk, x.size))
        for i in range(nk):
            span = knots[i + k] - knots[i]
            if span <= 0:
                continue
            c = k / ((k - 1) * span)
            left = x - knots[i]
            right = knots[i + k] - x
            Mk[i] = c * (left * M[i] + right * M[i + 1])
        M = Mk
    return M


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
        t = _rescale(z, self.domain)
        k = self.degree
        knots = self._knots
        M = _mspline_values(t, knots, k + 1)
        # 1-based index j with t_j <= x < t_{j+1}; at x = 1 it lands past every
        # interval, which the branching below turns into the exact value 1.
        j = np.searchsorted(knots, t, side="right")
        n = self.dim
        # Row m-1 holds the summand for member index m (1-based).
        summands = np.array(
            [(knots[m + k] - knots[m - 1]) * M[m - 1] / (k + 1)
             for m in range(1, M.shape[0] + 1)]
        )
        out = np.zeros((t.size, n))
        for i in range(1, n + 1):
            include = (np.arange(1, M.shape[0] + 1)[:, None] >= i + 1) & \
                      (np.arange(1, M.shape[0] + 1)[:, None] <= j[None, :])
            # A running sum adds the rows in index order whatever the number
            # of payoffs; ``sum(axis=0)`` sums one payoff's column pairwise,
            # so eval([z]) would differ in the last bit from z in a batch.
            sums = np.cumsum(summands * include, axis=0)[-1]
            out[:, i - 1] = np.where(i > j, 0.0, np.where(i < j - k, 1.0, sums))
        return out

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
