"""Shooting driver: the mass <-> shooting-parameter bijection.

A monopole profile is determined by the r^2 Taylor coefficient beta of
v = 2 log a at the origin.  For beta < 0 the trajectory is bounded and
approaches (a, phi) -> (0, -m/2); the mass is extracted at a finite
radius R through the tail identity

    phi(inf) = phi(R) - G(R) + eps,   0 <= eps <= a^2(R) G(R),

so  m_hat = 2 (G(R) - phi(R))  with error at most 2 a^2(R) G(R).  A shot
is one `ode.integrate` call in tail-stop mode: R is the first accepted
integrator step past the tail test 2 a^2(R) G(R) <= tol/10, and only
`profile_of_beta` asks it for dense output.

Inversion (mass -> beta) is a safeguarded Newton iteration in
x = log(-beta) on the strictly monotone map.  Each step shoots the
forward variational system next to the solution, seeded with the exact
beta-derivatives of the series head, which gives dm/dbeta = -dw(R)/2 at
the cost of one shot.  A bracket in x is kept from the sign of
m(beta) - m; a step that leaves it, or a slope that is not negative,
falls back to bisection, or to geometric expansion while one side of
the bracket is still open.  Newton converges quadratically here, so
after two Newton shots in a row the next residual is predicted from
theirs, and the plain check shot comes one slope shot earlier.  The
start is beta = -m^2/3, or a caller's `beta0` (`sweep` passes the
previous root, scaled to the next mass).

Every shot starts from the exact series head, which needs the metric's
expansion h^2/r^2 (on the Bryant-Salamon metrics an exact reversion of
rho(s)).  `solve_monopole` and `beta_of_mass` build it once and share
it with every shot they take: slope shots, the root check and the
profile.  The memo lives on a copy of the metric that the call drops
when it returns, so the next solve builds again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import ode
from .metric import DomainError, MetricProfile
from .series import SeriesSolution, v_series, initial_data

_R_FAR = 1e5                         # no shot integrates past this radius
_SERIES_ORDER = 12
_X_MIN, _X_MAX = math.log(1e-12), math.log(1e6)   # -1e6 <= beta <= -1e-12
_X_STEP = math.log(16.0)             # longest step in x = log(-beta)
_MAX_SHOTS = 100


class NoSolutionError(ValueError):
    """beta > 0: every trajectory blows up; there is no monopole."""


class OutOfRangeError(ValueError):
    pass


@dataclass
class MonopoleProfile:
    metric_id: str
    beta: float
    mass: float
    tol: float
    delta: float
    series: SeriesSolution = field(repr=False)
    result: Optional[ode.IntegrationResult] = field(repr=False)
    r: np.ndarray = field(repr=False)        # energy quadrature grid, 0 to R_end
    a: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    R_end: float = 0.0
    a_end: float = 0.0
    G_end: float = 0.0
    h2: Optional[np.ndarray] = field(default=None, repr=False)  # h^2 on r

    @property
    def tail(self):
        """(R, a(R), 2 a(R)^2 G(R)): the last entry is the mass-error
        bound of the tail.  `IntegrationResult.tail` is (R, a(R), G(R))."""
        return (self.R_end, self.a_end, 2.0 * self.a_end ** 2 * self.G_end)

    def fields(self, r):
        """(a, phi) on an array of radii, piecewise: series head below
        delta, dense integrator output up to R_end, analytic tail past it."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(r >= 0):              # NaN would fall in no piece
            raise DomainError("profile radii must be >= 0 and not NaN")
        if self.result is None:
            return np.ones_like(r), np.zeros_like(r)
        a = np.empty_like(r)
        phi = np.empty_like(r)
        head = r < self.delta
        mid = (r >= self.delta) & (r <= self.R_end)
        tail = r > self.R_end
        if head.any():
            a[head] = np.exp(0.5 * self.series.v_at(r[head]))
            phi[head] = 0.25 * self.series.vdot_at(r[head])
        if mid.any():
            am, pm = self.result.eval_a_phi(r[mid])
            a[mid] = am
            phi[mid] = pm
        if tail.any():
            # a ~ exp(-mass (r-R)); phi continues along the abelian flow
            met = self.result.metric
            G = np.asarray(met.green_tail(r[tail]), dtype=float)
            phi_end = float(self.result.y[1, -1]) * 0.25
            phi[tail] = phi_end - (self.G_end - G)
            a[tail] = self.a_end * np.exp(-self.mass * (r[tail] - self.R_end))
        return a, phi

    def eval_a(self, r):
        a, _ = self.fields(r)
        return a if np.ndim(r) else float(a[0])

    def eval_phi(self, r):
        _, phi = self.fields(r)
        return phi if np.ndim(r) else float(phi[0])


def _series_for(beta, metric: MetricProfile) -> SeriesSolution:
    coeffs = metric.series_coeffs(_SERIES_ORDER)
    return v_series(Fraction(beta), coeffs, _SERIES_ORDER)


def _one_series_build(metric: MetricProfile) -> MetricProfile:
    """`metric` with its series expansion memoised for as long as the
    returned copy lives: one build per order for one solve."""
    return replace(metric, _series=functools.lru_cache(metric._series))


def _require_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value!r}")


def _shoot(beta: float, metric: MetricProfile, tol: float,
           slope: bool = False, dense: bool = False):
    """Integrate one beta < 0 trajectory far enough for mass extraction.
    Returns (mass, series, delta, result, tail).  With `slope`, rows 2
    and 3 of `result.y` carry d(v, w)/dbeta; with `dense`, `result`
    can be evaluated between its steps."""
    ser = _series_for(beta, metric)
    delta, a0, phi0 = initial_data(ser)
    variation = ser.beta_derivative_at(delta) if slope else None
    res = ode.integrate("minus", ode.ProfileState(delta, a0, phi0), metric,
                        _R_FAR, tol=tol, variation=variation, tail_stop=True,
                        dense=dense)
    if res.classification == "blowup":
        raise NoSolutionError(
            f"trajectory for beta={beta} blew up (metric {metric.id})")
    if res.tail is None:
        raise OutOfRangeError("integration range exhausted")
    mass = 2.0 * (res.tail[2] - 0.25 * res.y[1, -1])
    return mass, ser, delta, res, res.tail


def _mass_slope(beta: float, metric: MetricProfile, tol: float):
    """(m(beta), dm/dbeta) from one shot.  dm/dbeta = -dw(R)/2 at the
    shot's end radius R; the beta-dependence of R is dropped, since
    dm/dR = -a^2(R)/h^2(R) is negligible there (a(R) < 1e-8)."""
    mass, _, _, res, _ = _shoot(beta, metric, tol, slope=True)
    return mass, -0.5 * float(res.y[3, -1])


def mass_of_beta(beta: float, metric: MetricProfile, tol: float = 1e-10) -> float:
    _require_finite("beta", beta)
    if beta > 0:
        raise NoSolutionError("no solutions exist for beta > 0")
    if beta == 0:
        return 0.0
    mass, *_ = _shoot(float(beta), metric, tol)
    return mass


def beta_of_mass(mass: float, metric: MetricProfile, tol: float = 1e-9,
                 beta0: Optional[float] = None) -> float:
    """The beta < 0 with |m(beta) - mass| <= tol, m shot at ODE tol `tol`.

    Newton in x = log(-beta) on log m (a line in flat space), from
    `beta0` if given, else from the flat-space root beta = -m^2/3.  A
    Newton step is taken only if the slope is negative, the step stays
    inside the bracket, is at most _X_STEP long and at most half the
    step before last; otherwise the bracket is bisected, or expanded by
    _X_STEP while one side is open.

    The new iterate is checked by one plain shot once its residual is
    predicted to be at most tol/10: by the linear change |dm dbeta|, or,
    after two Newton shots in a row with residuals e' > e > 0, by the
    quadratic rate C e^2 with C = e / e'^2.  A bisection or expansion
    clears that history.  A failed check costs one shot and the
    iteration goes on from the checked iterate.
    """
    _require_finite("mass", mass)
    if mass <= 0:
        raise ValueError("mass must be > 0")
    if beta0 is None:
        x = 2.0 * math.log(mass) - math.log(3.0)
    else:
        _require_finite("beta0", beta0)
        if not beta0 < 0:
            raise ValueError(f"beta0 must be < 0, not {beta0!r}")
        x = math.log(-beta0)
    metric = _one_series_build(metric)
    lo, hi = -math.inf, math.inf            # x with m < mass, m > mass
    dx_prev = dx_last = math.inf            # the last two steps in x
    e_prev = 0.0                            # residual a Newton step came from; 0: none
    for _ in range(_MAX_SHOTS):
        if x < _X_MIN:
            raise OutOfRangeError("bracket collapse near beta = 0")
        if x > _X_MAX:
            raise OutOfRangeError("no bracket found with beta >= -1e6")
        beta = -math.exp(x)
        m, dm = _mass_slope(beta, metric, tol)
        e = abs(m - mass)
        if m < mass:
            lo = x
        else:
            hi = x
        step = math.nan
        if dm < 0 and m > 0:
            step = (math.log(mass) - math.log(m)) * m / (dm * beta)
        if lo < x + step < hi and abs(step) <= min(_X_STEP, 0.5 * dx_prev):
            x_new = x + step
            beta_new = -math.exp(x_new)
            predicted = abs(dm * (beta_new - beta))
            if 0 < e < e_prev:                  # C e^2 with C = e / e_prev^2
                predicted = min(predicted, e ** 3 / e_prev ** 2)
            e_prev = e
        else:
            if hi == math.inf:
                x_new = lo + _X_STEP
            elif lo == -math.inf:
                x_new = hi - _X_STEP
            else:
                x_new = 0.5 * (lo + hi)
            beta_new, predicted = beta, e           # this shot's own
            e_prev = 0.0
        if (predicted <= tol / 10.0
                and abs(mass_of_beta(beta_new, metric, tol) - mass) <= tol):
            return beta_new
        dx_prev, dx_last = dx_last, abs(x_new - x)
        x = x_new
    raise OutOfRangeError("root polish failed to reach tolerance")


def profile_of_beta(beta: float, metric: MetricProfile,
                    tol: float = 1e-10) -> MonopoleProfile:
    """The profile of a given shooting parameter on the energy quadrature
    grid: 128 series-head points on [0, delta), 4097 dense ones to R_end.

    The dense radii are mapped to the chart once; the interpolant is
    evaluated there, and h^2 on the whole grid is kept for
    `intermediate_energy`: 0 at r = 0, `metric.h2` on the series head and
    the chart's `h2_of_x` on the dense part, equal to `metric.h2(r)`
    there to the bit, since both are the same elementwise maps."""
    _require_finite("beta", beta)
    if beta > 0:
        raise NoSolutionError("no solutions exist for beta > 0")
    if beta == 0:
        ser = _series_for(0, metric)
        r = np.linspace(0.0, 10.0, 101)
        return MonopoleProfile(
            metric_id=metric.id, beta=0.0, mass=0.0, tol=tol,
            delta=initial_data(ser)[0], series=ser, result=None, r=r,
            a=np.ones_like(r), phi=np.zeros_like(r), v=np.zeros_like(r))
    mass, ser, delta, res, (R, a_R, G_R) = _shoot(float(beta), metric, tol,
                                                  dense=True)
    r_head = np.linspace(0.0, delta, 129)[:-1]
    r_mid = np.linspace(delta, R, 4097)
    chart = metric.chart
    x_mid = chart.x_of_r(r_mid)
    v_mid, w_mid = res.eval_x(x_mid)
    r_all = np.concatenate([r_head, r_mid])
    v_all = np.concatenate([ser.v_at(r_head), v_mid])
    w_all = np.concatenate([ser.vdot_at(r_head), w_mid])
    h2_all = np.concatenate([[0.0], metric.h2(r_head[1:]), chart.h2_of_x(x_mid)])
    return MonopoleProfile(
        metric_id=metric.id, beta=float(beta), mass=mass, tol=tol,
        delta=delta, series=ser, result=res, r=r_all,
        a=np.exp(0.5 * v_all), phi=0.25 * w_all, v=v_all,
        R_end=R, a_end=a_R, G_end=G_R, h2=h2_all,
    )


def solve_monopole(metric: MetricProfile, mass: float, tol: float = 1e-10,
                   beta0: Optional[float] = None) -> MonopoleProfile:
    """The profile of the given mass; `beta0` is the Newton starting
    point passed on to `beta_of_mass`.  beta is rooted at tol
    max(tol, 1e-9), so below 1e-9 the mass meets the request only to
    about 1e-9, though `tol` still sets the profile's shot."""
    metric = _one_series_build(metric)
    beta = beta_of_mass(mass, metric, tol=max(tol, 1e-9), beta0=beta0)
    return profile_of_beta(beta, metric, tol=tol)


# ---------------------------------------------------------------------------
# bubbling
# ---------------------------------------------------------------------------

_BPS_R = 1.0                         # R: the BPS comparison runs on r <= R/lam
_HIGGS_WINDOW = (1.0, 5.0)           # radii of the translated-Higgs check


@dataclass
class BubblingReport:
    metric_id: str
    lams: list
    sup_bps: list                    # sup_{r <= R/lam} |a_lam - lam r / sinh(lam r)|
    sup_decreasing: bool
    translated_ok: list              # per lam: inequality holds at all samples
    worst_violation: float

    @property
    def passed(self) -> bool:
        return self.sup_decreasing and all(self.translated_ok)


def bubbling_report(masses, metric: MetricProfile) -> BubblingReport:
    """Large-mass comparison against the rescaled BPS profile on
    r <= _BPS_R/lam, and the translated-Higgs inequality
    0 <= G - m/2 - phi <= G a^2 on _HIGGS_WINDOW, for
    profiles solved at `solve_monopole`'s default tol.

    The inequality is checked against the profile's own extracted mass
    and with a slack proportional to the solver tolerance: at radii
    where a has already decayed below the integrator's resolution the
    exact bound G a^2 is far beneath the attainable numerical accuracy.
    """
    lams = sorted(float(m) for m in masses)
    if len(set(lams)) != len(lams) or len(lams) < 2:
        raise ValueError("bubbling_report compares at least two masses, all distinct")
    sups, trans_ok = [], []
    worst = 0.0
    for lam in lams:
        prof = solve_monopole(metric, lam)
        rs = np.linspace(_BPS_R / lam / 200.0, _BPS_R / lam, 200)
        x = lam * rs
        a_bps = x / np.sinh(x)
        sups.append(float(np.max(np.abs(prof.eval_a(rs) - a_bps))))

        rs2 = np.geomspace(*_HIGGS_WINDOW, 80)
        G = np.asarray(metric.green_tail(rs2), dtype=float)
        a2 = prof.eval_a(rs2) ** 2
        u = G - prof.mass / 2.0 - prof.eval_phi(rs2)
        slack = 1e-11 * (1.0 + lam)
        viol = float(np.max(np.maximum(-u, u - G * a2)))
        trans_ok.append(bool(np.all(u >= -slack) and np.all(u <= G * a2 + slack)))
        worst = max(worst, viol)
    decreasing = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    return BubblingReport(
        metric_id=metric.id, lams=lams, sup_bps=sups,
        sup_decreasing=decreasing, translated_ok=trans_ok,
        worst_violation=worst,
    )
