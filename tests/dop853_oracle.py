"""Test-side oracle for one DOP853 step: the generic stage loop and error
norm that `g2mono.ode` generates straight-line code for.

`add_stages` forms each stage argument as `y_i + h * sum(a_j * k_j_i)`
with `sum` over `map(mul, ...)`, and `error_norm` is scipy's DOP853
error norm written the same way, so the generated step must equal them
to the bit.
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
