"""Right-hand sides and adaptive integration for the reduced systems.

Each system is written once, in the table `_SYSTEMS`: "minus" (the
monopoles), "plus" (the non-extendable flows, sigma = +-1) and "su3"
(five fields on a Bryant-Salamon background).  An entry holds the
right-hand side in the chart, as source lines (`_Rhs`), the map from a
state to the integrated variables, the map from their derivative back
to d(fields)/dr, and the stop test on an accepted step, as source lines
too.  `integrate` steps these right-hand sides, and `rhs` (so
`oracles.residual` and `g2mono verify`) evaluates them.

Derivatives are always with respect to the geodesic radius r (called
rho on the BS backgrounds).  Internally every integration runs in the
coordinate x of the metric's chart (`MetricProfile.chart`): x = r on
most backgrounds, the fiber coordinate s on the BS ones.  A system reads
its background only through the chart, at x: h^2, dr/dx and the tail's
G.  Results are reported in r.

Every system, the minus system's variational rows and the linear
comparison equation of `envelope_check` run through one DOP853 driver
on Python floats (complex for su3), with scipy's tableau (written out in
`_dop853_tableau`, so that scipy is not imported), first step and
controller, so its steps are those of `solve_ivp(method="DOP853")` up
to rounding.  The first step is chosen in Python; the rest of a run is
one loop, generated on first use for each right-hand side, stop test,
chart, state length and dense flag.  It is straight-line code on local
names: scipy's controller with its rejections and x_end clamp, the
stages, the error norm, the interpolant rows and the stop test.  Every
stage inlines its argument, the chart's J = dr/dx and h^2 at the stage's
x (`Chart.stage`: the identity chart writes out the float h^2 of a
built-in or custom metric and calls h2_of_x for any other, the s chart
writes bs_f and bs_h2_of_s out) and the right-hand side's lines.  Both
ends of the range are radii > 0, so the x of every stage is one, and
h^2 needs no range check there.  The callable that `rhs` and the first
step use is compiled from the same lines.  The stage sums are written
out in the order `sum` adds them, without the tableau's exact 0.0
coefficients: a partial sum that starts from 0 is never -0.0, so adding
0.0 * k, a signed zero for a finite k, leaves it as it is, and a step
equals the generic stage loop to the bit wherever its stages are finite.
A dense step, once its error norm accepts it, goes on to the
interpolant's three stages and rows.  Each stop (blow-up, a at A_FLOOR,
and in shooting mode the tail bound 2 a^2 G <= tol/10) is a test on the
state at an accepted step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _dop853_tableau as _tab
from .energy import cumulative_trapezoid
# s_of_rho is not called here, but perfbench/tracer.py wraps ode.s_of_rho
from .metric import (MetricProfile, DomainError, S_CHART, _float_or_array, _require,
                     s_of_rho)

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


# ---------------------------------------------------------------------------
# the reduced systems
# ---------------------------------------------------------------------------

class _Rhs(NamedTuple):
    """A right-hand side dy/dx as source: `lines` set temporaries from the
    state a0, a1, ..., the chart point xs, J = dr/dx, h2 = h^2 and sigma,
    and `dy` are the components of dy/dx over the same names."""
    lines: tuple
    dy: tuple


# math's expm1, not numpy's: a numpy scalar call per stage costs more
# than the rest of the right-hand side (the two differ by at most 1 ulp).
# The clip is min(a0, 700.0) without the call, NaN and -0.0 included
_CLIPPED = f"e = _expm1({_EXP_CLIP!r} if {_EXP_CLIP!r} < a0 else a0)"
# a' = 2 phi a, phi' = (a^2-1)/(2h^2) in (v, w) = (2 log|a|, 4 phi)
_MINUS = _Rhs((_CLIPPED,), ("J * a1", "J * 2.0 * e / h2"))
# with the variational rows dv' = dw, dw' = 2 e^v dv / h^2
_MINUS_VARIATION = _Rhs(_MINUS.lines, (*_MINUS.dy, "J * a3", "J * 2.0 * (e + 1.0) * a2 / h2"))
# a' = sigma 2 a phi, phi' = sigma (1+a^2)/(2h^2) in (a, phi)
_PLUS = _Rhs((), ("J * sigma * 2.0 * a0 * a1", "J * sigma * (1.0 + a0 * a0) / (2.0 * h2)"))
# the five fields (b1, b2, b3, phi1, phi2), with x = s and fs = bs_f(s) / s
_SU3 = _Rhs(("p1 = a3.real", "p2 = a4.real", "fs = (1.0 + xs * xs) ** -0.25 / xs"),
            ("J * (fs * a1 * a2 - a0 * (2.0 * p1 + p2))",
             "J * (fs * a0 * a2 + a1 * (p1 - p2))",
             "J * (fs * a0 * a1 + a2 * (p1 + 2.0 * p2))",
             "J * ((a1 * a1 - a0 * a0 - 1.0).real / (2.0 * h2))",
             "J * ((a2 * a2 - a1 * a1 + 1.0).real / (2.0 * h2))"))
# envelope_check's linear comparison equation v'' = 2 v / h^2
_LINEAR = _Rhs((), ("J * a1", "J * 2.0 * a0 / h2"))

# Each stop test is source lines on an accepted step's state y0, y1, ...
# at x: they set `stop` to the reason, or leave it None.  |phi| r is
# tested only where |phi| > phi_far, so r_of_x is called only there.
_MINUS_STOP = (
    f"if y0 > {V_BLOWUP!r} or abs(y1) * 0.25 > phi_far and "
    f"abs(y1) * 0.25 * r_of_x(x) > {PHI_R_BLOWUP!r}: stop = 'blow-up'",
    f"elif y0 <= {_V_FLOOR!r}: stop = 'a fell to A_FLOOR'")
_PLUS_STOP = (f"if abs(y1) > phi_far and abs(y1) * r_of_x(x) > {PHI_R_BLOWUP!r}: "
              "stop = 'blow-up'",)
_SU3_STOP = (f"if max({', '.join(f'abs(y{i})' for i in range(5))}) > {PHI_R_BLOWUP!r}: "
             "stop = 'blow-up'",)
# the shooting mode's tail test, after the minus system's: G once v <=
# v_test, and after a failed test v_test lowered to where that G passes
_TAIL_STOP = _MINUS_STOP + (
    "if stop is None and y0 <= v_test:",
    "    G = green_of_x(x)",
    "    if 2.0 * _exp(y0) * G <= tol / 10.0:",
    "        stop, tail = 'tail bound reached', (_exp(0.5 * y0), G)",
    "    else: v_test = _log(tol / (20.0 * G))")


class _System(NamedTuple):
    rhs: _Rhs              # dy/dx in the chart
    to_y: Callable         # state -> y
    to_fields: Callable    # (state, dy/dr) -> d(fields)/dr
    stop: tuple            # the stop test, as source lines


_SYSTEMS = {
    # a = 0 maps to v = -inf, where phi' = -1/(2h^2): the Dirac monopole
    "minus": _System(
        _MINUS, lambda st: [2.0 * math.log(abs(st.a)) if st.a else -math.inf,
                            4.0 * float(st.phi)],
        lambda st, d: (0.5 * st.a * d[0], 0.25 * d[1]), _MINUS_STOP),
    "plus": _System(
        _PLUS, lambda st: [float(st.a), float(st.phi)], lambda st, d: tuple(d), _PLUS_STOP),
    "su3": _System(
        _SU3, lambda st: [complex(v) for v in (st.b1, st.b2, st.b3,
                                               st.phi1, st.phi2)],
        lambda st, d: tuple(d), _SU3_STOP),
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
    x = x(r) and dr/dx = 1.  DomainError unless 0 < r < inf."""
    spec = _system(system, metric, sigma)
    chart = metric.chart
    x = chart.x_of_r(metric._radii(state.r))
    f = _generated(_function_source, spec.rhs)
    return spec.to_fields(state, f(x, spec.to_y(state), 1.0, chart.h2_of_x(x), sigma))


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

# Straight-line code generated on first use (for 2 to 5 components a loop
# over them costs more than the arithmetic), keyed on (source, *key, the
# chart's scope): f on (_function_source, _Rhs), the loop on (_loop_source,
# _Rhs, stop test, chart stage, state length, error-controlled length,
# dense).  The key holds the chart's source and scope, not the Chart: an
# identity chart is built anew on each read.
_KERNELS = {}


def _names(prefix, n):
    return "".join(f"{prefix}{i}, " for i in range(n))


def _dot(coeffs, i):
    """sum(map(mul, coeffs, [k0_i, k1_i, ...])) as source, in `sum`'s
    left-to-right order, without the tableau's exact 0.0 coefficients.
    It starts from 0.0, which adds as `sum`'s int 0 does, so a leading
    -0.0 turns into 0.0 as there and no partial sum is -0.0.  Then
    adding a dropped term, a signed zero for a finite stage, leaves the
    sum's bits as they are."""
    return "(0.0" + "".join(f" + {c!r} * k{j}_{i}" for j, c in enumerate(coeffs) if c) + ")"


def _function_source(rhs):
    """`f(xs, y, J, h2, sigma)` -> dy/dx as a list."""
    return "\n    ".join(["def kernel(xs, y, J, h2, sigma):", f"{_names('a', len(rhs.dy))}= y",
                           *rhs.lines, f"return [{', '.join(rhs.dy)}]"]) + "\n"


def _stage_lines(rhs, chart, stages, first, n):
    """Source evaluating `stages` as stages first, first + 1, ... on local
    names: the argument a0, a1, ..., then the chart's J and h2 at xs, then
    k{s}_{i}, component i of stage s, from the lines of rhs."""
    lines = []
    for s, (a, c) in enumerate(stages, first):
        lines += [f"xs = x + {c!r} * h", *(f"a{i} = y{i} + h * {_dot(a, i)}" for i in range(n)),
                  *chart, *rhs.lines, *(f"k{s}_{i} = {d}" for i, d in enumerate(rhs.dy))]
    return lines


def _loop_source(rhs, stop, chart, n, n_err, dense):
    """`loop(h2_of_x, r_of_x, green_of_x, sigma, phi_far, tol, x, y, k0,
    h_abs, x_end, rtol, atol)` -> (grid, states, rows, nfev, stop, tail):
    DOP853 from (x, y), with k0 = f(x, y) and scipy's first step h_abs
    (whose two evaluations nfev counts), to x_end or to the first
    accepted step where the stop test sets `stop`.  A step is written
    out: its stages, stage 12's argument being y_new, scipy's error norm
    over the first n_err components, and scipy's controller.  With
    `dense`, an accepted step goes on to the interpolant's three stages
    and its 7 rows.  The loop's own names are none of those that the
    stages set (xs, a{i}, k{s}_{i}, J, h2 and the lines' temporaries)."""
    ys, k0s = _names("y", n), _names("k0_", n)
    attempt = ["if h_abs < min_step: raise StiffnessError('Required step size is less than "
               f"spacing between numbers.', state=(x, [{ys}]))",
               "x_new = x + h_abs * direction",
               "if direction * (x_new - x_end) > 0: x_new = x_end",
               "h = x_new - x",
               "h_abs = abs(h)",
               *_stage_lines(rhs, chart, _STEP, 1, n)]
    for i in range(n_err):
        attempt += [f"sc = atol + max(abs(y{i}), abs(a{i})) * rtol",
                    f"q5_{i} = abs({_dot(_E5, i)}) / sc",
                    f"q3_{i} = abs({_dot(_E3, i)}) / sc"]
    grow = f"{_SAFETY!r} * err ** {_ERROR_EXPONENT!r}"
    attempt += ["e5 = 0.0" + "".join(f" + q5_{i} * q5_{i}" for i in range(n_err)),
                "e3 = 0.0" + "".join(f" + q3_{i} * q3_{i}" for i in range(n_err)),
                f"err = abs(h) * e5 / _sqrt((e5 + 0.01 * e3) * {n_err}) if e5 or e3 else 0.0",
                f"nfev += {_N}",
                "if err < 1.0:",
                f"    factor = {_MAX_FACTOR!r} if err == 0.0 else min({_MAX_FACTOR!r}, {grow})",
                "    h_abs *= min(1.0, factor) if rejected else factor",
                "    break",
                f"h_abs *= max({_MIN_FACTOR!r}, {grow})",
                "rejected = True"]
    step = ["min_step = 10.0 * abs(_nextafter(x, toward) - x)",
            "h_abs, rejected = max(h_abs, min_step), False",
            "while True:", *(f"    {line}" for line in attempt),
            f"state = [{_names('a', n)}]", "grid.append(x_new)", "states.append(state)"]
    if dense:
        # component i of each of the 7 rows
        F = [[f"d{i}", f"h * k0_{i} - d{i}", f"2.0 * d{i} - h * (k{_N}_{i} + k0_{i})",
              *(f"h * {_dot(Dj, i)}" for Dj in _D)] for i in range(n)]
        step += [*(f"d{i} = a{i} - y{i}" for i in range(n)),
                 *_stage_lines(rhs, chart, _DENSE, _N + 1, n),
                 f"rows.append([{', '.join('[' + ', '.join(row) + ']' for row in zip(*F))}])",
                 f"nfev += {len(_DENSE)}"]
    step += ["x = x_new", f"{ys}= state", f"{k0s}= {_names(f'k{_N}_', n)}", *stop]
    if stop:
        step.append("if stop is not None: break")
    return "\n    ".join([
        "def kernel(h2_of_x, r_of_x, green_of_x, sigma, phi_far, tol, x, y, k0, h_abs, x_end, "
        "rtol, atol):", f"{ys}= y", f"{k0s}= k0",
        "direction = 1.0 if x_end > x else -1.0", "toward = direction * _inf",
        f"grid, states, rows, nfev, stop, tail, v_test = [x], [y], [], 2, None, None, {V_TAIL!r}",
        "while direction * (x - x_end) < 0:", *(f"    {line}" for line in step),
        "return grid, states, rows, nfev, stop, tail"]) + "\n"


def _generated(source, *key, scope=frozenset()):
    """The kernel that source(*key) defines, compiled on first use with
    math's functions and the chart's `scope` ((name, value) pairs) as
    its globals: f from _function_source, the loop from _loop_source."""
    kernel = _KERNELS.get((source, *key, scope))
    if kernel is None:
        names = {"_sqrt": math.sqrt, "_sinh": math.sinh, "_expm1": math.expm1,
                 "_exp": math.exp, "_log": math.log, "_nextafter": math.nextafter,
                 "_inf": math.inf, "StiffnessError": StiffnessError, **dict(scope)}
        exec(compile(source(*key), f"<DOP853 {source.__name__} {key}>", "exec"), names)
        kernel = _KERNELS[source, *key, scope] = names["kernel"]
    return kernel


def _trace(rhs, stop, chart, sigma, x, y, x_end, rtol, atol, n_err, dense,
           phi_far=math.inf, tol=None):
    """DOP853 on dy/dx = rhs in the chart from (x, y) toward x_end, its error
    controlled on the first n_err components: scipy's first step, chosen
    here, then the generated loop, whose result it returns."""
    h2_of_x = chart.h2_of_x
    f = _generated(_function_source, rhs)
    direction = 1.0 if x_end > x else -1.0
    fx = f(x, y, chart.dr_dx(x), h2_of_x(x), sigma)
    # the first step: scipy's select_initial_step (Hairer et al. II.4)
    scale = [atol + abs(yi) * rtol for yi in y[:n_err]]

    def rms(v):
        return math.sqrt(sum((abs(vi) / si) * (abs(vi) / si)
                             for vi, si in zip(v, scale))) / n_err ** 0.5

    interval = abs(x_end - x)
    d0, d1 = rms(y), rms(fx)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    x1 = x + h0 * direction
    f1 = f(x1, [yi + h0 * direction * fi for yi, fi in zip(y, fx)],
           chart.dr_dx(x1), h2_of_x(x1), sigma)
    d2 = rms([b - a for a, b in zip(fx, f1)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0) if max(d1, d2) > 0 else math.inf
    loop = _generated(_loop_source, rhs, stop, chart.stage, len(y), n_err, dense,
                      scope=chart.scope)
    return loop(h2_of_x, chart.r_of_x, chart.green_of_x, sigma, phi_far, tol, x, y, fx,
                min(100.0 * h0, h1, interval), x_end, rtol, atol)


def _between(a, b):
    lo, hi = min(a, b), max(a, b)
    return lambda t: (lo <= t) & (t <= hi)


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
    y: np.ndarray                        # rows: system state on the grid
    r_end: float
    x: np.ndarray = field(repr=False)    # the grid in the chart
    _F: Optional[np.ndarray] = field(repr=False)  # interpolant rows per step
    tail: Optional[tuple] = None         # (R, a(R), G(R)) where a tail stop fired

    @cached_property
    def r(self) -> np.ndarray:
        """The adaptive grid as geodesic radii, mapped on first read (a
        shot reads only its last state and its tail)."""
        # a copy: the identity chart returns its argument
        return self.metric.chart.r_of_x(self.x.copy())

    def _rows(self, x):
        if self._F is None:
            raise ValueError(
                f"this {self.system}-system result was built without dense output")
        rows = _interpolate(self.x, self._F, self.y, np.ravel(x))
        return rows.reshape(len(rows), *np.shape(x))

    def eval_x(self, x):
        """State rows at chart points x on the grid, from the step
        interpolants: each row a float for a float x, else an array of
        x's shape.  DomainError off the grid."""
        return self._rows(_float_or_array(x, _between(self.x[0], self.x[-1]),
                                          "x lies outside the integrated range"))

    def eval(self, r):
        """`eval_x` at x(r), for r from r(x[0]) to r_end.  r is checked,
        not x(r): x(r_end) may round past the grid's last point."""
        chart = self.metric.chart
        r = _float_or_array(r, _between(chart.r_of_x(self.x[0]), self.r_end),
                            "r lies outside the integrated range")
        return self._rows(chart.x_of_r(r))

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
    reduced systems, in the metric's chart x(r), from `initial` to
    0 < r_max < inf (a non-empty range).  A step below 10 ulp of x
    raises StiffnessError with `state` the (x, y) it could not step from.

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
    it those raise ValueError, and off the integrated range DomainError.

    `variation=(dv0, dw0)` (minus system only), two finite numbers,
    appends the forward variational rows  dv' = dw,  dw' = 2 e^v dv / h^2
    to the state, so rows 2 and 3 of `y` carry d(v, w)/dp for a
    parameter p of the initial data.  They are left out of error
    control, so the shot takes the same steps as without them.
    """
    check_tol(tol)
    for name, value in vars(initial).items():
        _require(f"initial {name}", value, cmath.isfinite, "finite")
    _require("r_max", r_max, lambda r: 0 < r < math.inf, "finite and > 0")
    if initial.r <= 0:
        raise DomainError("initial radius must be > 0")
    spec = _system(system, metric, sigma)
    minus = system == "minus"
    if (variation is not None or tail_stop) and not minus:
        raise ValueError("variation and tail_stop apply to the minus system")
    if minus and initial.a <= 0:
        raise DomainError("minus system requires a > 0 (use a=0 via green.dirac)")
    if variation is not None:
        _require("variation", variation, lambda v: len(v) == 2 and all(map(math.isfinite, v)),
                 "two finite numbers")

    chart = metric.chart
    x_span = (float(chart.x_of_r(initial.r)), float(chart.x_of_r(r_max)))
    if not abs(x_span[1] - x_span[0]) > 0.0:
        raise DomainError("the integration range is empty")
    # no r on the span exceeds that at its larger end (r_max, or the
    # start of a backward run), so |phi| r can pass PHI_R_BLOWUP only
    # where |phi| > phi_far
    phi_far = PHI_R_BLOWUP / chart.r_of_x(max(x_span))
    rtol, atol = 0.9 * tol, 0.1 * tol
    y0, rhs = spec.to_y(initial), spec.rhs
    # the variational rows are left out of error control
    n_err, flat = len(y0), minus and y0 == [0.0, 0.0]
    if variation is not None:
        y0 += [float(d) for d in variation]
        rhs = _MINUS_VARIATION
    xs, ys, Fs, nfev, stop, tail = _trace(
        rhs, _TAIL_STOP if tail_stop else spec.stop, chart, sigma, x_span[0], y0, x_span[1],
        rtol, atol, n_err, dense, phi_far, tol)
    r_end = float(chart.r_of_x(xs[-1]))
    return IntegrationResult(
        system=system, metric=metric,
        classification="flat" if flat else (
            "blowup" if stop == "blow-up" else "bounded"),
        stats={"nfev": nfev, "n_steps": len(xs) - 1,
               "status": 0 if stop is None else 1,
               "message": stop or "end of the range reached"},
        y=np.array(ys).T, r_end=r_end, x=np.array(xs),
        _F=np.array(Fs) if dense else None, tail=None if tail is None else (r_end, *tail),
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

    chart = result.metric.chart
    d = float(result.r[0])
    r_end = float(result.r_end)
    rs = np.linspace(d, r_end, _ENVELOPE_GRID)
    v, w = result.eval(rs)
    v0, w0 = float(v[0]), float(w[0])
    if v0 > 0 or w0 > 0:
        raise ValueError("envelope_check requires v(d) <= 0 and v'(d) <= 0")

    tangent = v0 + w0 * (rs - d)

    x_rs = chart.x_of_r(rs)
    inv_h2 = 1.0 / chart.h2_of_x(x_rs)
    J = cumulative_trapezoid(inv_h2, rs)
    II = cumulative_trapezoid(J, rs)
    lower_quad = tangent - 2.0 * II

    xs, ys, Fs = _trace(_LINEAR, (), chart, -1, float(chart.x_of_r(d)), [v0, w0],
                        float(chart.x_of_r(r_end)), 1e-10, 1e-12, 2, True)[:3]
    lower_lin = _interpolate(np.array(xs), np.array(Fs), np.array(ys).T, x_rs)[0]

    tol = _ENVELOPE_SLACK * (1.0 + np.abs(v))
    ok = (v >= np.maximum(lower_quad, lower_lin) - tol) & (v <= tangent + tol)
    margins = np.minimum(v - np.maximum(lower_quad, lower_lin), tangent - v)
    return EnvelopeReport(
        r=rs, v=v, lower_quadrature=lower_quad, lower_linear=lower_lin,
        upper_tangent=tangent, ok=ok, worst_margin=float(margins.min()),
    )
