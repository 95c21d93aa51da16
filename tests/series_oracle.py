"""Test-side oracle for the singular-point series.

`v_series_oracle` builds the series of `g2mono.series.v_series` in an
independent way: by fixed-point iteration of the double integral of
(2/h^2)(exp(v) - 1).
"""

from fractions import Fraction

from g2mono.fps import FormalSeries
from g2mono.series import SeriesSolution


def v_series_oracle(beta, metric_coeffs, order: int) -> SeriesSolution:
    """Independent construction: iterate

        v  <-  double integral of  psi(r) * (e^v - 1) * 2 / r^2

    starting from v = beta r^2.  The map is affine in each coefficient
    (the e^v linear term feeds v_n back into itself with slope
    lambda_n = 2/((n-1)n)), so each raw sweep only contracts; a
    per-coefficient affine extrapolation x = (m - lambda*x_old)/(1-lambda)
    turns every sweep into an exact solve of its lowest unconverged
    order.  `order` sweeps therefore suffice for exact agreement.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    beta = Fraction(beta)
    phi = FormalSeries([Fraction(c) for c in metric_coeffs], order)
    if phi[0] != 1:
        raise ValueError("metric series must have phi_0 = 1")
    psi = phi.inverse()
    v = FormalSeries([0, 0, beta], order)
    for _ in range(order):
        ev = v.exp() - FormalSeries([1], order)
        w = (psi * ev * 2).shift(-2)           # (2/h^2)(e^v - 1), regular at 0
        mapped = w.integrate().integrate().truncate(order)
        out = [Fraction(0), Fraction(0), beta]
        for n in range(3, order + 1):
            lam = Fraction(2, (n - 1) * n)
            out.append((mapped[n] - lam * v[n]) / (1 - lam))
        v_new = FormalSeries(out, order)
        if v_new == v:
            break
        v = v_new
    return SeriesSolution(
        beta=beta,
        coeffs=tuple(v[i] for i in range(order + 1)),
        metric_coeffs=tuple(phi[i] for i in range(order + 1)),
        order=order,
    )
