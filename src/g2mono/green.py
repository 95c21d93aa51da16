"""Abelian (Dirac) monopoles built from the radial Green's function.

With the fixed convention G(r) = int_r^inf dt/(2 h^2) >= 0, the abelian
Higgs field is

    phi_D(r) = -mass - charge * G(r),

so |phi_D| -> mass at infinity and |phi_D| blows up at r = 0 for
charge != 0.  phi_D is harmonic in the reduced sense: the radial flux
2 h^2 phi_D' = charge is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (MetricProfile, DomainError, NonparabolicRequired, _float_or_array,
                     _require)


@dataclass(frozen=True)
class DiracMonopole:
    metric: MetricProfile
    charge: int
    mass: float

    def phi(self, r):
        r = _float_or_array(r, lambda x: (x > 0) & (x < math.inf),
                            "phi_D requires 0 < r < inf")
        if self.charge == 0:
            return -self.mass if isinstance(r, float) else np.full_like(r, -self.mass)
        return -self.mass - self.charge * self.metric.green_tail(r)


def dirac(metric: MetricProfile, charge: int, mass: float) -> DiracMonopole:
    _require("mass", mass, lambda m: 0 <= m < math.inf, "finite and >= 0")
    _require("charge", charge, lambda q: math.isfinite(q) and q == int(q), "an integer")
    if charge != 0 and not metric.nonparabolic:
        raise NonparabolicRequired(
            f"metric {metric.id!r} is parabolic: no charged Dirac monopole")
    return DiracMonopole(metric=metric, charge=int(charge), mass=float(mass))


def harmonicity_check(d: DiracMonopole, radii) -> float:
    """sup |d/dr (2 h^2 phi_D')| by nested central differences."""
    radii = _float_or_array(radii, lambda x: (x > 0) & (x < math.inf),
                            "radii must be > 0 and < inf")
    if d.charge == 0:
        return 0.0

    def flux(x):
        # fourth-order stencil on the Green's function itself: the
        # constant -mass part of phi_D would otherwise swamp the tiny
        # tail differences once 2h^2 is large
        h1 = 1e-3 * min(x, 2.0)   # absolute cap: exponential tails need it
        g = d.metric.green_tail
        dphi = -d.charge * (8.0 * (g(x + h1) - g(x - h1))
                            - (g(x + 2 * h1) - g(x - 2 * h1))) / (12.0 * h1)
        return 2.0 * d.metric.h2(x) * dphi

    worst = 0.0
    for r in np.atleast_1d(radii):
        H = 0.05 * r
        worst = max(worst, abs((flux(r + H) - flux(r - H)) / (2.0 * H)))
    return worst


@dataclass(frozen=True)
class AsymptoticFit:
    exponent: float          # power p in |phi_D + mass| ~ amp * (r + offset)^p
    amplitude: float
    offset: float
    max_rel_residual: float


_FIT_RADII = (20.0, 100.0, 60)       # geomspace(r_lo, r_hi, n) of the fit


def asymptotic_fit(d: DiracMonopole) -> AsymptoticFit:
    """|phi_D + mass| = |charge| G = amp * (r + offset)^p, read off at the
    _FIT_RADII from G' = -1/(2 h^2).

    For G = A (r + c)^p that identity makes q(r) = -2 h^2 G equal to
    (r + c)/p, a line in r: p and c come from one linear least-squares
    fit of q, and amp = |charge| A from the mean of log G - p log(r + c).
    The fit reads G itself, so it does not depend on the mass.  A window
    where q is not a line of negative slope (an exponential tail, as on
    hyperbolic, has q constant) raises DomainError.
    """
    if d.charge == 0:
        raise DomainError("asymptotic fit needs charge != 0")
    rs = np.geomspace(*_FIT_RADII)
    G = d.metric.green_tail(rs)
    slope, icept = np.polyfit(rs, -2.0 * d.metric.h2(rs) * G, 1)
    with np.errstate(all="ignore"):
        p, off = 1.0 / slope, icept / slope
        log_x = np.log(rs + off)
        log_a = np.mean(np.log(G) - p * log_x)
        resid = np.max(np.abs(np.exp(log_a + p * log_x) / G - 1.0))
        amp = abs(d.charge) * np.exp(log_a)
    if not (slope < 0 and np.isfinite([p, amp, off, resid]).all()):
        raise DomainError(
            f"the Green's function of {d.metric.id!r} is not a power law on r in "
            f"[{_FIT_RADII[0]:g}, {_FIT_RADII[1]:g}]: the fit gives exponent "
            f"{p:.3g}, amplitude {amp:.3g}")
    return AsymptoticFit(exponent=float(p), amplitude=float(amp), offset=float(off),
                         max_rel_residual=float(resid))
