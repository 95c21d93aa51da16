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
    r: np.ndarray = field(repr=False)            # the knots of the rule
    partial: np.ndarray = field(repr=False)      # int_0^r density
    boundary: np.ndarray = field(repr=False)     # phi(r)(a^2(r)-1)
    max_partial_residual: float = 0.0

    @property
    def passed(self) -> bool:
        """Acceptance criterion 11: |E_I - m/2| <= 1e-5 and the partial
        integrals match the boundary term within the quadrature estimate."""
        return bool(self.identity_residual <= 1e-5
                    and self.max_partial_residual <= self.quad_tol)


def energy_density(r, a, phi, h2):
    """(a^2-1)^2/(2h^2) + 4 a^2 phi^2 on samples r with h^2 = `h2` there,
    with the removable zero at r=0."""
    r, a, phi, h2 = (np.asarray(x, dtype=float) for x in (r, a, phi, h2))
    out = np.empty_like(r)
    pos = r > 0
    out[pos] = ((a[pos] ** 2 - 1.0) ** 2 / (2.0 * h2[pos])
                + 4.0 * a[pos] ** 2 * phi[pos] ** 2)
    out[~pos] = 0.0
    return out


def boundary_term(profile, R: float) -> float:
    """phi(R)(a^2(R) - 1); converges to mass/2 as R grows."""
    a = profile.eval_a(R)
    phi = profile.eval_phi(R)
    return float(phi * (a * a - 1.0))


# The two cumulative rules below are scipy.integrate's, on 1-D float arrays
# with initial=0: the same operations in the same order, so the same floats.

def cumulative_trapezoid(y, x):
    """int_{x[0]}^{x[i]} y by the trapezoid rule, for each i."""
    res = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate(([0.0], res))


def _simpson_pieces(y, dx):
    """Simpson's rule for unequal intervals over [x[i], x[i+1]], fitted to
    the samples i, i+1, i+2 (eqn (8) of scipy's reference [2])."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x):
    """int_{x[0]}^{x[i]} y by Simpson's rule on unequal intervals (each
    interval from the samples ahead of it where there are two, else from
    those behind), the trapezoid rule below 3 samples."""
    if len(y) < 3:
        cum = cumulative_trapezoid(y, x)
    else:
        dx = np.diff(x)
        ahead = _simpson_pieces(y, dx)
        behind = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(y) - 1)
        pieces[:-1:2] = ahead[::2]
        pieces[1::2] = behind[::2]
        pieces[-1] = behind[-1]
        cum = np.concatenate(([0.0], np.cumsum(pieces)))
    return cum + 0.0        # as scipy adds initial = 0: -0.0 becomes 0.0


def profile_samples(r, a, phi, h2, w):
    """(r, a, phi, h2, w) as float arrays, checked as a quadrature rule:
    2 or more samples, all finite, r >= 0 and strictly increasing, the
    weights w >= 0 with a knot (weight 0) at each end.  h2 and w are
    required: a missing one (None) raises ValueError naming it."""
    missing = [name for name, col in (("h2", h2), ("w", w)) if col is None]
    if missing:
        raise ValueError(f"the profile lacks {' and '.join(missing)}: the "
                         "energy needs h^2 and the quadrature weights on its samples")
    r, a, phi, h2, w = (np.asarray(x, dtype=float) for x in (r, a, phi, h2, w))
    if r.size < 2:
        raise ValueError(f"a profile needs at least 2 samples, not {r.size}")
    if not all(x.shape == r.shape for x in (a, phi, h2, w)):
        raise ValueError("profile r, a, phi, h2 and w must have one length")
    if not (np.isfinite(r).all() and r[0] >= 0 and (np.diff(r) > 0).all()):
        raise ValueError("profile radii must be finite, >= 0 and strictly increasing")
    if not (np.isfinite(a).all() and np.isfinite(phi).all()):
        raise ValueError("profile a and phi must be finite")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("profile weights w must be finite and >= 0")
    if w[0] != 0 or w[-1] != 0:
        raise ValueError("profile weights w must be 0 on the first and last samples")
    return r, a, phi, h2, w


def intermediate_energy(profile, metric: MetricProfile) -> EnergyReport:
    """The energy of a profile by its own quadrature rule, plus the
    analytic tail:

        E_I = sum_k w_k e(r_k) + int_{R_end}^inf e dr,
        int_{R_end}^inf e dr = G(R_end) + O(a^2(R_end)),

    with h^2 on the samples read from the profile's `h2`.  The profile
    needs `r`, `a`, `phi`, `h2`, `w` and `mass` (a solved
    `MonopoleProfile` or a profile CSV's columns); without `h2` or `w`
    it raises ValueError.  The partial sums and the boundary term
    phi (a^2 - 1) are reported at the knots (the samples of weight 0),
    and `quad_tol` is the largest difference there between the partial
    sums and cumulative Simpson over all samples, at least 1e-9.
    A profile with a `metric_id` (a solved one) must be on `metric`.
    The flat profile (mass 0, a = 1 and phi = 0 on every sample) has
    E_I = 0 exactly; any other profile is integrated, whatever its mass.
    """
    if getattr(profile, "metric_id", metric.id) != metric.id:
        raise ValueError(f"profile solved on {profile.metric_id!r}, not {metric.id!r}")
    res = getattr(profile, "result", None)
    if res is not None and res.classification == "blowup":
        raise UndefinedEnergyError("blow-up trajectory: energy undefined")
    r, a, phi, h2, w = profile_samples(
        profile.r, profile.a, profile.phi, getattr(profile, "h2", None),
        getattr(profile, "w", None))
    knots = w == 0
    if profile.mass == 0.0 and (a == 1.0).all() and (phi == 0.0).all():   # flat
        z = np.zeros(np.count_nonzero(knots))
        return EnergyReport(metric_id=metric.id, mass=0.0, value=0.0,
                            boundary_limit=0.0, identity_residual=0.0,
                            quad_tol=0.0, r=r[knots], partial=z, boundary=z)

    dens = energy_density(r, a, phi, h2)
    partial = np.cumsum(w * dens)[knots]
    est = float(np.max(np.abs(cumulative_simpson(dens, r)[knots] - partial)))

    R = float(r[-1])
    a_R = float(a[-1])
    # beyond R: a ~ 0, density ~ 1/(2h^2) + 4 a^2 phi^2
    tail = float(metric.green_tail(R)) + 0.5 * profile.mass * a_R ** 2
    value = float(partial[-1]) + tail

    boundary = phi[knots] * (a[knots] ** 2 - 1.0)
    return EnergyReport(
        metric_id=metric.id, mass=float(profile.mass), value=value,
        boundary_limit=float(boundary[-1]),
        identity_residual=abs(value - 0.5 * profile.mass),
        quad_tol=max(est, 1e-9), r=r[knots], partial=partial, boundary=boundary,
        max_partial_residual=float(np.max(np.abs(partial - boundary))),
    )
