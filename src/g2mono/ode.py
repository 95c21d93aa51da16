"""Right-hand sides and adaptive integration for the reduced systems.

Each system is written once, in the table `_SYSTEMS`: "minus" (the
monopoles), "plus" (the non-extendable flows, sigma = +-1) and "su3"
(five fields on a Bryant-Salamon background).  An entry holds the
right-hand side in the chart, the map from a state to the integrated
variables, the map from their derivative back to d(fields)/dr, and the
per-step stop test.  `integrate` steps these right-hand sides, and
`rhs` (so `oracles.residual` and `g2mono verify`) evaluates them.

Derivatives are always with respect to the geodesic radius r (called
rho on the BS backgrounds).  Internally every integration runs in the
coordinate x of the metric's chart (`MetricProfile.chart`): x = r on
most backgrounds, the fiber coordinate s on the BS ones, so that no
right-hand side has to invert rho(s).  Results are reported in r.

Every system, and the linear comparison equation of `envelope_check`,
runs through one DOP853 loop on Python floats (complex for su3) with
scipy's tableau (written out in `_dop853_tableau`, so that scipy is not
imported) and scipy's controller, so its steps are those of
`solve_ivp(method="DOP853")` up to rounding.  Each stop (blow-up, a at
A_FLOOR, and in shooting mode the tail bound 2 a^2 G <= tol/10) is a
test on the state at an accepted step.  Interpolants are built only when
the caller asks for dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _dop853_tableau as _tab
from .energy import cumulative_trapezoid
# s_of_rho is not called here, but perfbench/tracer.py wraps ode.s_of_rho
from .metric import MetricProfile, DomainError, S_CHART, bs_f, s_of_rho

V_BLOWUP = 50.0
PHI_R_BLOWUP = 1.0e6
A_FLOOR = 1.0e-120
_V_FLOOR = 2.0 * math.log(A_FLOOR)
V_TAIL = 2.0 * math.log(1e-8)       # test the tail bound once a < 1e-8
_EXP_CLIP = 700.0
_ENVELOPE_GRID = 400                # radii at which envelope_check compares
_ENVELOPE_SLACK = 1e-7              # its relative slack


class StiffnessError(RuntimeError):
    def __init__(self, msg, state=None):
        super().__init__(msg)
        self.state = state


@dataclass(frozen=True)
class ProfileState:
    r: float
    a: float
    phi: float


@dataclass(frozen=True)
class SU3State:
    r: float
    b1: complex
    b2: complex
    b3: complex
    phi1: float
    phi2: float


def _expm1_clipped(v):
    # numpy's expm1, not math.expm1: the two differ in the last bit; as
    # a Python float, since a numpy scalar would slow every stage sum
    return float(np.expm1(min(v, _EXP_CLIP)))


# ---------------------------------------------------------------------------
# the reduced systems
# ---------------------------------------------------------------------------

def _minus(x, y, J, h2, sigma):
    """a' = 2 phi a, phi' = (a^2-1)/(2h^2) in (v, w) = (2 log|a|, 4 phi)."""
    return [J * y[1], J * 2.0 * _expm1_clipped(y[0]) / h2]


def _minus_variation(x, y, J, h2, sigma):
    """`_minus` and the variational rows dv' = dw, dw' = 2 e^v dv / h^2."""
    e = _expm1_clipped(y[0])
    return [J * y[1], J * 2.0 * e / h2,
            J * y[3], J * 2.0 * (e + 1.0) * y[2] / h2]


def _plus(x, y, J, h2, sigma):
    """a' = sigma 2 a phi, phi' = sigma (1+a^2)/(2h^2) in (a, phi)."""
    return [J * sigma * 2.0 * y[0] * y[1],
            J * sigma * (1.0 + y[0] * y[0]) / (2.0 * h2)]


def _su3(x, y, J, h2, sigma):
    """The five fields (b1, b2, b3, phi1, phi2), with x = s."""
    b1, b2, b3, p1, p2 = y[0], y[1], y[2], y[3].real, y[4].real
    fs = bs_f(x) / x
    return [J * d for d in (
        fs * b2 * b3 - b1 * (2.0 * p1 + p2),
        fs * b1 * b3 + b2 * (p1 - p2),
        fs * b1 * b2 + b3 * (p1 + 2.0 * p2),
        (b2 * b2 - b1 * b1 - 1.0).real / (2.0 * h2),
        (b3 * b3 - b2 * b2 + 1.0).real / (2.0 * h2))]


def _minus_stop(x, y, phi_r_blowup):
    if y[0] > V_BLOWUP or phi_r_blowup(abs(y[1]) * 0.25, x):
        return "blow-up"
    return "a fell to A_FLOOR" if y[0] <= _V_FLOOR else None


class _System(NamedTuple):
    f: Callable            # (x, y, J = dr/dx, h^2, sigma) -> dy/dx
    to_y: Callable         # state -> y
    to_fields: Callable    # (state, dy/dr) -> d(fields)/dr
    stop: Callable         # (x, y, phi_r_blowup(phi, x)) -> reason or None


_SYSTEMS = {
    # a = 0 maps to v = -inf, where phi' = -1/(2h^2): the Dirac monopole
    "minus": _System(
        _minus, lambda st: [2.0 * math.log(abs(st.a)) if st.a else -math.inf,
                            4.0 * float(st.phi)],
        lambda st, d: (0.5 * st.a * d[0], 0.25 * d[1]), _minus_stop),
    "plus": _System(
        _plus, lambda st: [float(st.a), float(st.phi)], lambda st, d: tuple(d),
        lambda x, y, phi_r_blowup:
            "blow-up" if phi_r_blowup(abs(y[1]), x) else None),
    "su3": _System(
        _su3, lambda st: [complex(v) for v in (st.b1, st.b2, st.b3,
                                               st.phi1, st.phi2)],
        lambda st, d: tuple(d),
        lambda x, y, _: "blow-up" if max(map(abs, y)) > PHI_R_BLOWUP else None),
}


def _system(system: str, metric: MetricProfile, sigma: int) -> _System:
    spec = _SYSTEMS.get(system)
    if spec is None:
        raise ValueError(f"unknown system {system!r}")
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if system == "su3" and metric.chart is not S_CHART:
        raise DomainError(
            f"the su3 system needs a Bryant-Salamon background, not {metric.id!r}")
    return spec


def rhs(system: str, state, metric: MetricProfile, sigma: int = -1):
    """d(fields)/dr of a system at a ProfileState (minus, plus) or an
    SU3State (su3): the right-hand side that `integrate` steps, at
    x = x(r) and dr/dx = 1."""
    spec = _system(system, metric, sigma)
    h2, x = metric.h2(state.r), metric.chart.x_of_r(state.r)   # h2 checks r
    return spec.to_fields(state, spec.f(x, spec.to_y(state), 1.0, h2, sigma))


# ---------------------------------------------------------------------------
# DOP853 on Python floats
# ---------------------------------------------------------------------------

# (row of A, node) per stage after the first.  Stage 12, with row B and
# node 1, is f(x + h, y_new); stages 13-15 are the interpolant's.
_N = _tab.N_STAGES
_STAGES = list(zip(_tab.A, _tab.C))
_STEP, _DENSE = _STAGES[:_N], _STAGES[_N:]
_E3, _E5, _D = _tab.E3, _tab.E5, _tab.D
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0      # scipy's controller
_ERROR_EXPONENT = -1.0 / 8.0         # -1 / (error estimator order + 1)


def _add_stages(fun, x, h, y, K, stages):
    """Append `stages` to K, where K[i] lists component i of the stages
    so far; returns the last stage's argument and value."""
    for a, c in stages:
        arg = [yi + h * sum(map(mul, a, Ki)) for yi, Ki in zip(y, K)]
        k = fun(x + c * h, arg)
        for Ki, ki in zip(K, k):
            Ki.append(ki)
    return arg, k


def _error_norm(K, h, y, y_new, rtol, atol, n_err):
    """scipy's DOP853 error norm over the first n_err components."""
    e5 = e3 = 0.0
    for Ki, yi, yn in zip(K[:n_err], y, y_new):
        scale = atol + max(abs(yi), abs(yn)) * rtol
        q5 = abs(sum(map(mul, _E5, Ki))) / scale
        q3 = abs(sum(map(mul, _E3, Ki))) / scale
        e5 += q5 * q5
        e3 += q3 * q3
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n_err) if e5 or e3 else 0.0


def _dop853(fun, x, y, x_end, rtol, atol, n_err, dense):
    """Step DOP853 from (x, y) toward x_end, yielding (x, y, nfev, F) at
    each accepted step, with the error controlled on the first n_err
    components.  F is None, or with `dense` the step's 7 interpolant
    rows, at three more evaluations."""
    direction = 1.0 if x_end > x else -1.0
    f = fun(x, y)
    # the first step: scipy's select_initial_step (Hairer et al. II.4)
    scale = [atol + abs(yi) * rtol for yi in y[:n_err]]

    def rms(v):
        return math.sqrt(sum((abs(vi) / si) * (abs(vi) / si)
                             for vi, si in zip(v, scale))) / n_err ** 0.5

    interval = abs(x_end - x)
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(x + h0 * direction, [yi + h0 * direction * fi
                                  for yi, fi in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, f1)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0) if max(d1, d2) > 0 else math.inf
    h_abs, nfev, F = min(100.0 * h0, h1, interval), 2, None
    while direction * (x - x_end) < 0:
        min_step = 10.0 * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError("Required step size is less than "
                                     "spacing between numbers.", state=(x, y))
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            K = [[fi] for fi in f]
            y_new, f_new = _add_stages(fun, x, h, y, K, _STEP)
            nfev += _N
            err = _error_norm(K, h, y, y_new, rtol, atol, n_err)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if dense:
            _add_stages(fun, x, h, y, K, _DENSE)
            nfev += len(_DENSE)
            dy = [b - a for a, b in zip(y, y_new)]
            F = [dy, [h * f0 - d for f0, d in zip(f, dy)],
                 [2.0 * d - h * (fn + f0) for d, f0, fn in zip(dy, f, f_new)]]
            F += [[h * sum(map(mul, Dj, Ki)) for Ki in K] for Dj in _D]
        x, y, f = x_new, y_new, f_new
        yield x, y, nfev, F


def _interpolate(xs, F, y, x):
    """State rows at chart points x, from the states y (rows) on the grid
    xs and the interpolant rows F of each step.  A point at a step end
    takes the earlier step, as scipy's OdeSolution does."""
    sign = 1.0 if xs[-1] > xs[0] else -1.0
    i = np.searchsorted(sign * xs[1:-1], sign * x)
    u = ((x - xs[i]) / (xs[i + 1] - xs[i]))[:, None]
    acc = np.zeros_like(F[i, 0])
    for j, Fj in enumerate(F[i].transpose(1, 0, 2)[::-1]):
        acc = (acc + Fj) * (u if j % 2 == 0 else 1.0 - u)
    return acc.T + y[:, i]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class IntegrationResult:
    system: str
    metric: MetricProfile
    classification: str                  # bounded | blowup | flat
    stats: dict
    r: np.ndarray                        # adaptive grid (geodesic radius)
    y: np.ndarray                        # rows: system state on the grid
    r_end: float
    _dense: Optional[tuple] = field(repr=False)  # (x grid, rows F per step)
    tail: Optional[tuple] = None         # (R, a(R), G(R)) where a tail stop fired

    def eval_x(self, x):
        """State rows at chart points x from the step interpolants."""
        if self._dense is None:
            raise ValueError(
                f"this {self.system}-system result was built without dense output")
        return _interpolate(*self._dense, self.y,
                            np.atleast_1d(np.asarray(x, dtype=float)))

    def eval(self, r):
        """State rows at radii r from the step interpolants."""
        return self.eval_x(self.metric.chart.x_of_r(
            np.atleast_1d(np.asarray(r, dtype=float))))

    # minus-system conveniences -------------------------------------

    def eval_a_phi(self, r):
        if self.system != "minus":
            raise ValueError("eval_a_phi applies to the minus system")
        v, w = self.eval(r)[:2]
        return np.exp(0.5 * np.clip(v, _V_FLOOR, _EXP_CLIP)), 0.25 * w


def check_tol(tol: float) -> float:
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-14, 1e-6]")
    return tol


def integrate(system: str, initial, metric: MetricProfile, r_max: float,
              tol: float = 1e-10, sigma: int = -1, variation=None,
              tail_stop: bool = False,
              dense: bool = True) -> IntegrationResult:
    """Adaptive embedded Runge-Kutta (DOP853) trace of one of the
    reduced systems, in the metric's chart x(r), from `initial` to r_max
    (a non-empty range).  A step below 10 ulp of x raises StiffnessError
    with `state` the (x, y) it could not step from.

    `initial` is a ProfileState (minus/plus) or SU3State.  A backward
    run, such as the plus system's toward the singular origin, passes
    its end as r_max < initial.r.

    Every stop is a per-step test on the state, not a located event, so
    a stopped trace ends at the first accepted step past its threshold.
    Blow-up stops the trace and classifies it "blowup": v > V_BLOWUP or
    |phi| r > PHI_R_BLOWUP (minus), |phi| r > PHI_R_BLOWUP (plus),
    max |y| > PHI_R_BLOWUP (su3).  A minus trace also stops, "bounded",
    once a falls to A_FLOOR.

    `tail_stop` (minus system only) is the shooting mode: r_max is only
    a far bound, and the trace stops at the first accepted step where
    the tail bound 2 a^2 G(r) is at most tol/10, with `tail` set to
    (R, a(R), G(R)) there.  G is evaluated only once v <= V_TAIL, and
    after a failed test only once v falls below the level at which that
    G would pass.  If the far bound comes first, `tail` is None.

    `dense` builds the interpolant behind `eval`/`eval_a_phi`; without
    it those raise ValueError.

    `variation=(dv0, dw0)` (minus system only) appends the forward
    variational rows  dv' = dw,  dw' = 2 e^v dv / h^2  to the state, so
    rows 2 and 3 of `y` carry d(v, w)/dp for a parameter p of the
    initial data.  They are left out of error control, so the shot
    takes the same steps as without them.
    """
    check_tol(tol)
    if initial.r <= 0:
        raise DomainError("initial radius must be > 0")
    spec = _system(system, metric, sigma)
    minus = system == "minus"
    if (variation is not None or tail_stop) and not minus:
        raise ValueError("variation and tail_stop apply to the minus system")
    if minus and initial.a <= 0:
        raise DomainError("minus system requires a > 0 (use a=0 via green.dirac)")

    chart = metric.chart
    x_of_r, r_of_x, dr_dx, h2_of_x = (chart.x_of_r, chart.r_of_x,
                                      chart.dr_dx, chart.h2_of_x)
    x_span = (float(x_of_r(initial.r)), float(x_of_r(r_max)))
    if not abs(x_span[1] - x_span[0]) > 0.0:
        raise DomainError("the integration range is empty")
    # no r on the span exceeds that at its larger end (r_max, or the
    # start of a backward run), so |phi| r can pass PHI_R_BLOWUP only
    # where |phi| > phi_far
    phi_far = PHI_R_BLOWUP / r_of_x(max(x_span))

    def phi_r_blowup(phi, x):
        return phi > phi_far and phi * r_of_x(x) > PHI_R_BLOWUP

    rtol, atol = 0.9 * tol, 0.1 * tol
    y0, f = spec.to_y(initial), spec.f
    # the variational rows are left out of error control
    n_err, flat = len(y0), minus and y0 == [0.0, 0.0]
    if variation is not None:
        y0 += [float(d) for d in variation]
        f = _minus_variation

    def fun(x, y):
        return f(x, y, dr_dx(x), h2_of_x(x), sigma)

    xs, ys, Fs = [x_span[0]], [y0], []
    v_test = V_TAIL
    stop = tail = None
    for x, y, nfev, F in _dop853(fun, x_span[0], y0, x_span[1], rtol, atol,
                                 n_err, dense):
        xs.append(x)
        ys.append(y)
        Fs.append(F)
        stop = spec.stop(x, y, phi_r_blowup)
        if tail_stop and stop is None and y[0] <= v_test:
            r = r_of_x(x)
            G = metric.green_tail(r)
            if 2.0 * math.exp(y[0]) * G <= tol / 10.0:
                tail = (float(r), math.exp(0.5 * y[0]), G)
                stop = "tail bound reached"
            else:
                v_test = math.log(tol / (20.0 * G))
        if stop is not None:
            break
    rs = r_of_x(np.array(xs))
    return IntegrationResult(
        system=system, metric=metric,
        classification="flat" if flat else (
            "blowup" if stop == "blow-up" else "bounded"),
        stats={"nfev": nfev, "n_steps": len(rs) - 1,
               "status": 0 if stop is None else 1,
               "message": stop or "end of the range reached"},
        r=rs, y=np.array(ys).T, r_end=float(rs[-1]),
        _dense=(np.array(xs), np.array(Fs)) if dense else None,
        tail=tail,
    )


# ---------------------------------------------------------------------------
# comparison envelopes
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    r: np.ndarray
    v: np.ndarray
    lower_quadrature: np.ndarray     # -k2 - k1 (r-d) - 2 int int h^-2
    lower_linear: np.ndarray         # solution of v'' = (2/h^2) v, same data
    upper_tangent: np.ndarray        # -k2 - k1 (r-d)
    ok: np.ndarray
    worst_margin: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ok))


def envelope_check(result: IntegrationResult) -> EnvelopeReport:
    """Check the comparison envelopes for a bounded minus-type solution
    with v(d) <= 0, v'(d) <= 0:

        max(v_b, v_lin)  <=  v  <=  v(d) + v'(d) (r - d)

    where v_b = v(d) + v'(d)(r-d) - 2 int int h^-2 comes from
    e^v - 1 >= -1, the tangent line from e^v - 1 <= 0, and v_lin solves
    the linear comparison equation v'' = (2/h^2) v_lin with the same
    initial data (e^v - 1 >= v).  Note both computable curves bound v
    from below; the stated inequalities are those the comparison lemma
    actually yields.  v_lin is stepped like `integrate`'s systems, at
    rtol 1e-10 and atol 1e-12.
    """
    if result.system != "minus":
        raise ValueError("envelope_check applies to the minus system")
    if result.classification == "blowup":
        raise ValueError("envelope_check requires a non-blowup solution")

    metric, chart = result.metric, result.metric.chart
    d = float(result.r[0])
    r_end = float(result.r_end)
    rs = np.linspace(d, r_end, _ENVELOPE_GRID)
    v, w = result.eval(rs)
    v0, w0 = float(v[0]), float(w[0])
    if v0 > 0 or w0 > 0:
        raise ValueError("envelope_check requires v(d) <= 0 and v'(d) <= 0")

    tangent = v0 + w0 * (rs - d)

    inv_h2 = 1.0 / np.asarray(metric.h2(rs), dtype=float)
    J = cumulative_trapezoid(inv_h2, rs)
    II = cumulative_trapezoid(J, rs)
    lower_quad = tangent - 2.0 * II

    def lin(x, y):
        Jx = chart.dr_dx(x)
        return [Jx * y[1], Jx * 2.0 * y[0] / chart.h2_of_x(x)]

    xs, ys, Fs = [float(chart.x_of_r(d))], [[v0, w0]], []
    for x, y, _, F in _dop853(lin, xs[0], ys[0], float(chart.x_of_r(r_end)),
                              1e-10, 1e-12, 2, True):
        xs.append(x)
        ys.append(y)
        Fs.append(F)
    lower_lin = _interpolate(np.array(xs), np.array(Fs), np.array(ys).T,
                             chart.x_of_r(rs))[0]

    tol = _ENVELOPE_SLACK * (1.0 + np.abs(v))
    ok = (v >= np.maximum(lower_quad, lower_lin) - tol) & (v <= tangent + tol)
    margins = np.minimum(v - np.maximum(lower_quad, lower_lin), tangent - v)
    return EnvelopeReport(
        r=rs, v=v, lower_quadrature=lower_quad, lower_linear=lower_lin,
        upper_tangent=tangent, ok=ok, worst_margin=float(margins.min()),
    )
