"""Test-side oracle for DOP853 on Python floats: the generic stage loop,
error norm, first step, controller and stop tests that `g2mono.ode`
generates one straight-line loop for.

`add_stages` forms each stage argument as `y_i + h * sum(a_j * k_j_i)`
with `sum` over `map(mul, ...)`, and `error_norm` is scipy's DOP853
error norm written the same way, so the generated stages must equal
them to the bit.  `controller` is scipy's step-size controller over
`step`, and `integrate` runs it with `ode.integrate`'s stop tests, written
as Python functions, so a generated trace must equal it to the bit.
"""

import math
from operator import mul

from g2mono import ode


def add_stages(fun, x, h, y, K, stages):
    """Append `stages` (rows of A with their nodes) to K, where K[i]
    lists component i of the stages so far; returns the last stage's
    argument and value."""
    for a, c in stages:
        arg = [yi + h * sum(map(mul, a, Ki)) for yi, Ki in zip(y, K)]
        k = fun(x + c * h, arg)
        for Ki, ki in zip(K, k):
            Ki.append(ki)
    return arg, k


def error_norm(K, h, y, y_new, rtol, atol, n_err):
    """scipy's DOP853 error norm over the first n_err components."""
    e5 = e3 = 0.0
    for Ki, yi, yn in zip(K[:n_err], y, y_new):
        scale = atol + max(abs(yi), abs(yn)) * rtol
        q5 = abs(sum(map(mul, ode._E5, Ki))) / scale
        q3 = abs(sum(map(mul, ode._E3, Ki))) / scale
        e5 += q5 * q5
        e3 += q3 * q3
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n_err) if e5 or e3 else 0.0


def step(fun, x, h, y, f, rtol, atol, n_err, dense):
    """(y_new, f_new, error norm, F): one step from (x, y) with f = fun(x, y),
    and with `dense` and an accepted step (error norm < 1) the 7
    interpolant rows, as the controller uses them (else F is None)."""
    K = [[fi] for fi in f]
    y_new, f_new = add_stages(fun, x, h, y, K, ode._STEP)
    err = error_norm(K, h, y, y_new, rtol, atol, n_err)
    F = None
    if dense and err < 1.0:
        add_stages(fun, x, h, y, K, ode._DENSE)
        dy = [b - a for a, b in zip(y, y_new)]
        F = [dy, [h * f0 - d for f0, d in zip(f, dy)],
             [2.0 * d - h * (fn + f0) for d, f0, fn in zip(dy, f, f_new)]]
        F += [[h * sum(map(mul, Dj, Ki)) for Ki in K] for Dj in ode._D]
    return y_new, f_new, err, F


def first_step(fun, x, y, x_end, rtol, atol, n_err):
    """(f(x, y), h_abs): scipy's select_initial_step (Hairer et al. II.4)."""
    direction = 1.0 if x_end > x else -1.0
    fx = fun(x, y)
    scale = [atol + abs(yi) * rtol for yi in y[:n_err]]

    def rms(v):
        return math.sqrt(sum((abs(vi) / si) * (abs(vi) / si)
                             for vi, si in zip(v, scale))) / n_err ** 0.5

    interval = abs(x_end - x)
    d0, d1 = rms(y), rms(fx)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(x + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y, fx)])
    d2 = rms([b - a for a, b in zip(fx, f1)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0) if max(d1, d2) > 0 else math.inf
    return fx, min(100.0 * h0, h1, interval)


def controller(fun, x, y, fx, h_abs, x_end, rtol, atol, n_err, dense, rejected_steps=None):
    """scipy's DOP853 controller on `step`, from (x, y) with fx = fun(x, y)
    and a first step h_abs toward x_end, yielding (x, y, f(x, y), nfev,
    F, err) at each accepted step (nfev counting the first step's 2
    evaluations); each rejection appends its x to `rejected_steps`."""
    direction = 1.0 if x_end > x else -1.0
    nfev = 2
    while direction * (x - x_end) < 0:
        min_step = 10.0 * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise ode.StiffnessError("Required step size is less than "
                                         "spacing between numbers.", state=(x, y))
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            y_new, f_new, err, F = step(fun, x, h, y, fx, rtol, atol, n_err, dense)
            nfev += ode._N
            if err < 1.0:
                factor = ode._MAX_FACTOR if err == 0.0 else min(
                    ode._MAX_FACTOR, ode._SAFETY * err ** ode._ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(ode._MIN_FACTOR, ode._SAFETY * err ** ode._ERROR_EXPONENT)
            rejected = True
            if rejected_steps is not None:
                rejected_steps.append(x)
        if dense:
            nfev += len(ode._DENSE)
        x, y, fx = x_new, y_new, f_new
        yield x, y, fx, nfev, F, err


def _minus_stop(x, y, phi_r_blowup):
    if y[0] > ode.V_BLOWUP or phi_r_blowup(abs(y[1]) * 0.25, x):
        return "blow-up"
    return "a fell to A_FLOOR" if y[0] <= ode._V_FLOOR else None


_STOPS = {
    "minus": _minus_stop,
    "plus": lambda x, y, phi_r_blowup: "blow-up" if phi_r_blowup(abs(y[1]), x) else None,
    "su3": lambda x, y, _: "blow-up" if max(map(abs, y)) > ode.PHI_R_BLOWUP else None,
}


def integrate(system, initial, metric, r_max, tol=1e-10, sigma=-1, variation=None,
              tail_stop=False, dense=True):
    """`ode.integrate`'s trace by the Python controller and stop tests:
    a dict of the grid x, the states y (rows), nfev, the interpolant
    rows F (None without `dense`), the stats message, the tail and the
    radii x of the rejected steps."""
    chart = metric.chart
    rhs = ode._MINUS_VARIATION if variation is not None else ode._SYSTEMS[system].rhs
    f = ode._generated(ode._function_source, rhs)

    def fun(x, y):
        return f(x, y, chart.dr_dx(x), chart.h2_of_x(x), sigma)

    x_span = (float(chart.x_of_r(initial.r)), float(chart.x_of_r(r_max)))
    phi_far = ode.PHI_R_BLOWUP / chart.r_of_x(max(x_span))

    def phi_r_blowup(phi, x):
        return phi > phi_far and phi * chart.r_of_x(x) > ode.PHI_R_BLOWUP

    y0 = ode._SYSTEMS[system].to_y(initial)
    n_err = len(y0)
    y0 += [] if variation is None else [float(d) for d in variation]
    rtol, atol = 0.9 * tol, 0.1 * tol
    fx, h_abs = first_step(fun, x_span[0], y0, x_span[1], rtol, atol, n_err)
    xs, ys, Fs, rejected = [x_span[0]], [y0], [], []
    v_test = ode.V_TAIL
    stop = tail = None
    for x, y, _, nfev, F, _ in controller(fun, x_span[0], y0, fx, h_abs, x_span[1], rtol, atol,
                                       n_err, dense, rejected):
        xs.append(x)
        ys.append(y)
        Fs.append(F)
        stop = _STOPS[system](x, y, phi_r_blowup)
        if tail_stop and stop is None and y[0] <= v_test:
            G = chart.green_of_x(x)
            if 2.0 * math.exp(y[0]) * G <= tol / 10.0:
                tail = (math.exp(0.5 * y[0]), G)
                stop = "tail bound reached"
            else:
                v_test = math.log(tol / (20.0 * G))
        if stop is not None:
            break
    r_end = float(chart.r_of_x(xs[-1]))
    return {"x": xs, "y": ys, "nfev": nfev, "F": Fs if dense else None,
            "message": stop or "end of the range reached",
            "tail": None if tail is None else (r_end, *tail), "rejected": rejected}
