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
the bracket is still open.  Newton starts from a model root read off
the metric's Green's function, whose curvature predicts each step's
residual: the plain check shot follows the first step predicted within
tol/10, on the flat backgrounds the first.

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
from .metric import _GL_NODES, _GL_WEIGHTS, MetricProfile, _float_or_array, _require
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
    r: np.ndarray = field(repr=False)        # quadrature samples, 0 to R_end
    a: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    R_end: float = 0.0
    a_end: float = 0.0
    G_end: float = 0.0
    h2: Optional[np.ndarray] = field(default=None, repr=False)  # h^2 on r
    w: Optional[np.ndarray] = field(default=None, repr=False)   # weights; 0: knot

    @property
    def tail(self):
        """(R, a(R), 2 a(R)^2 G(R)): the last entry is the mass-error
        bound of the tail.  `IntegrationResult.tail` is (R, a(R), G(R))."""
        return (self.R_end, self.a_end, 2.0 * self.a_end ** 2 * self.G_end)

    def fields(self, r):
        """(a, phi) at radii r, each a float for a float r, else an array:
        series head below delta, dense integrator output up to R_end,
        analytic tail past it."""
        r = _float_or_array(r, lambda x: (x >= 0) & (x < math.inf),
                            "profile radii must be finite, >= 0 and not NaN")
        if isinstance(r, float):
            return tuple(float(x[0]) for x in self.fields(np.array([r])))
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
        return self.fields(r)[0]

    def eval_phi(self, r):
        return self.fields(r)[1]


def _series_for(beta, metric: MetricProfile) -> SeriesSolution:
    coeffs = metric.series_coeffs(_SERIES_ORDER)
    return v_series(Fraction(beta), coeffs, _SERIES_ORDER)


def _one_series_build(metric: MetricProfile) -> MetricProfile:
    """`metric` with its series expansion memoised for as long as the
    returned copy lives: one build per order for one solve."""
    return replace(metric, _series=functools.lru_cache(metric._series))


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
    _require("beta", beta, math.isfinite, "finite")
    if beta > 0:
        raise NoSolutionError("no solutions exist for beta > 0")
    if beta == 0:
        return 0.0
    mass, *_ = _shoot(float(beta), metric, tol)
    return mass


def _model_c(mass: float, metric: MetricProfile) -> float:
    """c = 4 g0 in the model root beta = -(m^2 + c m)/3, g0 = lim 1/(2r) - G(r)
    read as 2 g(r) - g(2r) at r = 1e-4 (O(r^2) and cancellation: ~1e-11);
    c >= -m/2 keeps beta < 0 if g0 < 0."""
    g1, g2 = (0.5 / r - metric.green_tail(r) for r in (1e-4, 2e-4))
    return max(4.0 * (2.0 * g1 - g2), -0.5 * mass)


def _start(mass: float, c: float) -> float:
    """x = log(-beta) at the model root, the root on the flat backgrounds.
    Where c / mass overflows, log1p(c / mass) is log(c) - log(mass)."""
    q = c / mass
    return (2.0 * math.log(mass) + math.log1p(q) if q < math.inf
            else math.log(mass) + math.log(c)) - math.log(3.0)


def _curvature(mass: float, c: float) -> float:
    """k: on the model a Newton step from m leaves |log(m'/mass)| ~ k log(m/mass)^2."""
    return abs(c) * mass / (2.0 * (2.0 * mass + c) * (mass + c))


def beta_of_mass(mass: float, metric: MetricProfile, tol: float = 1e-9) -> float:
    """The beta < 0 with |m(beta) - mass| <= tol, m shot at ODE tol `tol`.

    Newton in x = log(-beta) on log m (a line in flat space), from
    `_start`, the model root beta = -(m^2 + 4 g0 m)/3.  A
    Newton step is taken only if the slope is negative, the step stays
    inside the bracket, is at most _X_STEP long and at most half the
    step before last; otherwise the bracket is bisected, or expanded by
    _X_STEP while one side is open.  A shot that has not decayed by _R_FAR
    counts as m < mass; a Newton step to or below such a shot means that
    the mass is too small to decay by _R_FAR: OutOfRangeError.

    A Newton step from mass m is checked by one plain shot if the model
    predicts its residual, mass k log(m/mass)^2 (`_curvature`), to be at
    most tol/10; a bisection or expansion if its shot's own residual is.
    A failed check costs one shot and the iteration goes on from it.
    """
    _require("mass", mass, lambda m: 0 < m < math.inf, "finite and > 0")
    c = _model_c(mass, metric)
    x = _start(mass, c)
    metric = _one_series_build(metric)
    lo, hi = -math.inf, math.inf            # x with m < mass, m > mass
    lo_exhausted = False                    # lo's shot did not decay by _R_FAR
    dx_prev = dx_last = math.inf            # the last two steps in x
    for _ in range(_MAX_SHOTS):
        if x < _X_MIN:
            raise OutOfRangeError("bracket collapse near beta = 0")
        if x > _X_MAX:
            raise OutOfRangeError("no bracket found with beta >= -1e6")
        beta = -math.exp(x)
        try:
            m, dm = _mass_slope(beta, metric, tol)
        except OutOfRangeError:             # not decayed by _R_FAR: m < mass
            m = dm = 0.0
        if m < mass:
            lo, lo_exhausted = x, m == 0.0
        else:
            hi = x
        step = math.nan
        if dm < 0 and m > 0:
            step = (math.log(mass) - math.log(m)) * m / (dm * beta)
            if lo_exhausted and x + step <= lo:
                raise OutOfRangeError(f"integration range exhausted: mass {mass:g} "
                                      f"does not decay by r = {_R_FAR:g}")
        if lo < x + step < hi and abs(step) <= min(_X_STEP, 0.5 * dx_prev):
            # k is read only in range: far below it 2 (2m) m underflows to 0
            x_new, beta_new = x + step, -math.exp(x + step)
            predicted = mass * _curvature(mass, c) * math.log(m / mass) ** 2
        else:
            if hi == math.inf:
                x_new = lo + _X_STEP
            elif lo == -math.inf:
                x_new = hi - _X_STEP
            else:
                x_new = 0.5 * (lo + hi)
            beta_new, predicted = beta, abs(m - mass)   # this shot's own
        if (predicted <= tol / 10.0
                and abs(mass_of_beta(beta_new, metric, tol) - mass) <= tol):
            return beta_new
        dx_prev, dx_last = dx_last, abs(x_new - x)
        x = x_new
    raise OutOfRangeError("root polish failed to reach tolerance")


def _steps(nodes, ends):
    """ends[0], then for each step its row of `nodes` and its end ends[i+1]."""
    per_step = np.column_stack([nodes.reshape(len(ends) - 1, -1), ends[1:]])
    return np.concatenate([ends[:1], per_step.ravel()])


def profile_of_beta(beta: float, metric: MetricProfile,
                    tol: float = 1e-10) -> MonopoleProfile:
    """The profile of a given shooting parameter, sampled at the nodes of
    its own energy quadrature rule.  In order: a knot at r = 0; the
    20-node Gauss-Legendre rule on the series head [0, delta); a knot at
    delta; then, for each accepted step [x_i, x_{i+1}] of the dense shot
    in the metric's chart, the same rule in x and a knot at x_{i+1}.

    A knot has weight 0 and holds the exact state: the series at 0, the
    shot's step-end states from delta on.  A node holds the series or
    the step interpolant, with the weight of the rule in r: delta w_k on
    the head, dx w_k dr/dx(x) on a step.  Nothing is mapped r -> x: the
    radii from delta on are one `r_of_x` call (the last is R_end to the
    bit, as `r_of_x` maps floats and arrays alike), and h^2 is 0 at
    r = 0, `metric.h2` on the head nodes and the chart's `h2_of_x` from
    delta on."""
    _require("beta", beta, math.isfinite, "finite")
    if beta > 0:
        raise NoSolutionError("no solutions exist for beta > 0")
    if beta == 0:
        ser = _series_for(0, metric)
        r = np.linspace(0.0, 10.0, 101)
        return MonopoleProfile(
            metric_id=metric.id, beta=0.0, mass=0.0, tol=tol,
            delta=initial_data(ser)[0], series=ser, result=None, r=r,
            a=np.ones_like(r), phi=np.zeros_like(r), v=np.zeros_like(r),
            h2=np.concatenate([[0.0], metric.h2(r[1:])]), w=np.zeros_like(r))
    mass, ser, delta, res, (R, a_R, G_R) = _shoot(float(beta), metric, tol,
                                                  dense=True)
    chart, x, y = metric.chart, res.x, res.y
    dx = np.diff(x)[:, None]
    x_nodes = x[:-1, None] + dx * _GL_NODES            # one row per step
    v_nodes, w_nodes = res.eval_x(x_nodes.ravel())[:2]
    x_steps = _steps(x_nodes, x)
    r_head = np.concatenate([[0.0], delta * _GL_NODES])
    h2_all = np.concatenate([[0.0], metric.h2(r_head[1:]), chart.h2_of_x(x_steps)])
    v_all = np.concatenate([ser.v_at(r_head), _steps(v_nodes, y[0])])
    w_all = np.concatenate([ser.vdot_at(r_head), _steps(w_nodes, y[1])])
    weight = np.concatenate([[0.0], delta * _GL_WEIGHTS, _steps(
        dx * _GL_WEIGHTS * chart.dr_dx(x_nodes), np.zeros(len(x)))])
    return MonopoleProfile(
        metric_id=metric.id, beta=float(beta), mass=mass, tol=tol,
        delta=delta, series=ser, result=res,
        r=np.concatenate([r_head, chart.r_of_x(x_steps)]),
        a=np.exp(0.5 * v_all), phi=0.25 * w_all, v=v_all,
        R_end=R, a_end=a_R, G_end=G_R, h2=h2_all, w=weight,
    )


def solve_monopole(metric: MetricProfile, mass: float, tol: float = 1e-10) -> MonopoleProfile:
    """The profile of the given mass: beta rooted at tol max(tol, 1e-9), the
    profile shot at `tol`.  At the default tol |mass - m| is about 5e-11 m
    at large m (7e-8 at m = 1500): the root's test is absolute (ROADMAP item 14)."""
    ode.check_tol(tol)
    metric = _one_series_build(metric)
    beta = beta_of_mass(mass, metric, tol=max(tol, 1e-9))
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
