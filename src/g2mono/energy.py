"""Reduced intermediate-energy quadrature and its exact boundary identity.

The radial energy density of a monopole profile is

    e(r) = (a^2 - 1)^2 / (2 h^2) + 4 a^2 phi^2
         = 2 h^2 [ phi'^2 + 2 a^2 phi^2 / h^2 ]   along solutions,

and  d/dr [ phi (a^2 - 1) ] = e(r), so the partial integral up to R
telescopes to the boundary term phi(R)(a^2(R) - 1), which tends to
-phi(inf) = mass/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

from .metric import MetricProfile


class UndefinedEnergyError(ValueError):
    """Blow-up trajectories have no finite intermediate energy."""


@dataclass
class EnergyReport:
    metric_id: str
    mass: float
    value: float                     # E_I quadrature value (with analytic tail)
    boundary_limit: float            # phi(R_end)(a^2(R_end) - 1)
    identity_residual: float         # |value - mass/2|
    quad_tol: float                  # a-posteriori quadrature error estimate
    r: np.ndarray = field(repr=False)
    partial: np.ndarray = field(repr=False)      # int_0^r density
    boundary: np.ndarray = field(repr=False)     # phi(r)(a^2(r)-1)
    max_partial_residual: float = 0.0

    @property
    def passed(self) -> bool:
        """Acceptance criterion 11: |E_I - m/2| <= 1e-5 and the partial
        integrals match the boundary term within the quadrature estimate."""
        return bool(self.identity_residual <= 1e-5
                    and self.max_partial_residual <= self.quad_tol)


def energy_density(r, a, phi, metric: MetricProfile, h2=None):
    """(a^2-1)^2/(2h^2) + 4 a^2 phi^2, with the removable zero at r=0.
    h^2 is `metric.h2(r)`, or read from `h2`, its values on r."""
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.empty_like(r)
    pos = r > 0
    h2 = (np.asarray(metric.h2(r[pos]), dtype=float) if h2 is None
          else np.asarray(h2, dtype=float)[pos])
    out[pos] = (a[pos] ** 2 - 1.0) ** 2 / (2.0 * h2) + 4.0 * a[pos] ** 2 * phi[pos] ** 2
    out[~pos] = 0.0
    return out


def boundary_term(profile, R: float) -> float:
    """phi(R)(a^2(R) - 1); converges to mass/2 as R grows."""
    a = profile.eval_a(R)
    phi = profile.eval_phi(R)
    return float(phi * (a * a - 1.0))


def _cumulative(density, r):
    """Cumulative integral with an error estimate from the
    Simpson-vs-trapezoid discrepancy."""
    simp = cumulative_simpson(density, x=r, initial=0.0)
    trap = cumulative_trapezoid(density, r, initial=0.0)
    est = float(np.max(np.abs(simp - trap)))
    return simp, est


def profile_samples(r, a, phi):
    """(r, a, phi) as float arrays, checked as a quadrature grid: 2 or
    more samples, all finite, r >= 0 and strictly increasing."""
    r, a, phi = (np.asarray(x, dtype=float) for x in (r, a, phi))
    if r.size < 2:
        raise ValueError(f"a profile needs at least 2 samples, not {r.size}")
    if not (np.isfinite(r).all() and r[0] >= 0 and (np.diff(r) > 0).all()):
        raise ValueError("profile radii must be finite, >= 0 and strictly increasing")
    if not (np.isfinite(a).all() and np.isfinite(phi).all()):
        raise ValueError("profile a and phi must be finite")
    return r, a, phi


def intermediate_energy(profile, metric: MetricProfile) -> EnergyReport:
    """Composite quadrature of the energy density on the profile's own
    samples (a solved profile stores its series head and dense output on
    [0, R_end]) plus the analytic tail

        int_{R_end}^inf e dr = G(R_end) + O(a^2(R_end)),

    reported together with the partial-vs-boundary identity arrays on
    the same samples.  h^2 on the samples is the profile's own `h2` when
    it has one (a solved profile keeps it from its single mapping of the
    grid to the chart), else `metric.h2(r)`: the two are equal to the bit.
    A profile with a `metric_id` (a solved one) must be on `metric`.
    """
    if getattr(profile, "metric_id", metric.id) != metric.id:
        raise ValueError(f"profile solved on {profile.metric_id!r}, not {metric.id!r}")
    res = getattr(profile, "result", None)
    if res is not None and res.classification == "blowup":
        raise UndefinedEnergyError("blow-up trajectory: energy undefined")
    r_f, a_f, p_f = profile_samples(profile.r, profile.a, profile.phi)
    if profile.mass == 0.0:                 # the flat profile
        z = np.zeros_like(r_f)
        return EnergyReport(metric_id=metric.id, mass=0.0, value=0.0,
                            boundary_limit=0.0, identity_residual=0.0,
                            quad_tol=0.0, r=r_f, partial=z, boundary=z)

    dens = energy_density(r_f, a_f, p_f, metric,
                          h2=getattr(profile, "h2", None))
    cum, est = _cumulative(dens, r_f)

    R = float(r_f[-1])
    a_R = float(a_f[-1])
    # beyond R: a ~ 0, density ~ 1/(2h^2) + 4 a^2 phi^2
    tail = float(metric.green_tail(R)) + 0.5 * profile.mass * a_R ** 2
    value = float(cum[-1]) + tail

    # identity arrays on the quadrature grid itself (no interpolation)
    boundary = p_f * (a_f ** 2 - 1.0)
    quad_tol = max(est, 1e-9)
    max_res = float(np.max(np.abs(cum - boundary)))

    return EnergyReport(
        metric_id=metric.id, mass=float(profile.mass), value=value,
        boundary_limit=float(boundary[-1]),
        identity_residual=abs(value - 0.5 * profile.mass),
        quad_tol=quad_tol, r=r_f, partial=cum, boundary=boundary,
        max_partial_residual=max_res,
    )
