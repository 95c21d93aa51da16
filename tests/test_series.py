"""Singular-point series: recurrence vs independent double-integral oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2mono import metric, series
from g2mono.fps import FormalSeries
from g2mono.series import (TRUNCATION_BOUND, SeriesTruncationError,
                           choose_delta, initial_data, v_series)
from series_oracle import recurrence_oracle, v_series_oracle

F = Fraction
BACKENDS = (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4, metric.BS_CP2)
BETAS = (F(-1, 3), F(-1), F(-4, 3), F(-1, 10))


def test_recurrence_equals_oracle():
    for met in BACKENDS:
        coeffs = met.series_coeffs(12)
        for beta in BETAS:
            a = v_series(beta, coeffs, 12)
            b = v_series_oracle(beta, coeffs, 12)
            assert a.coeffs == b.coeffs, (met.id, beta)


def test_euclidean_v4_identity():
    sol = v_series(F(-1, 3), metric.EUCLIDEAN.series_coeffs(4), 4)
    assert sol.coeffs[4] == sol.coeffs[2] ** 2 / 10
    sol = v_series(F(-7, 2), metric.EUCLIDEAN.series_coeffs(4), 4)
    assert sol.coeffs[4] == sol.coeffs[2] ** 2 / 10


def test_hyperbolic_closed_form_coefficients():
    # v = 2 log[(m+1) sinh r / sinh((m+1) r)], m = 1:
    # v2 = -(m^2+2m)/3 = -1, v4 = 1/6
    sol = v_series(F(-1), metric.HYPERBOLIC.series_coeffs(4), 4)
    assert sol.coeffs[2] == F(-1)
    assert sol.coeffs[4] == F(1, 6)


def test_odd_coefficients_vanish_on_even_backends():
    for met in BACKENDS:
        sol = v_series(F(-1, 2), met.series_coeffs(9), 9)
        assert all(c == 0 for c in sol.coeffs[3::2])


def test_v_at_matches_bps():
    # euclidean beta=-m^2/3 is the BPS profile v = 2 log(m r / sinh(m r))
    m = 1.0
    sol = v_series(F(-1, 3), metric.EUCLIDEAN.series_coeffs(12), 12)
    for r in (0.01, 0.05, 0.1):
        ref = 2.0 * math.log(m * r / math.sinh(m * r))
        assert abs(sol.v_at(r) - ref) <= 1e-13


def test_choose_delta_and_initial_data():
    sol = v_series(F(-1, 3), metric.EUCLIDEAN.series_coeffs(12), 12)
    d = choose_delta(sol)
    assert 0 < d <= 0.1
    a, phi, bound = initial_data(sol, d)
    assert 0 < a < 1 and phi < 0 and bound <= 1e-14


def test_truncation_error_carries_admissible_delta():
    # odd orders too: on an even metric the odd top coefficient vanishes
    raised = 0
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4):
        for order in range(4, 15):
            coeffs = met.series_coeffs(order)
            for beta in (F(-40), F(-5), F(-1, 3), F(-100), F(2)):
                sol = v_series(beta, coeffs, order)
                try:
                    initial_data(sol, 1.0)
                except SeriesTruncationError as exc:
                    raised += 1
                    d = exc.admissible_delta
                    assert 0 < d < 1.0, (met.id, order, beta)
                    assert sol.truncation_bound(d) <= TRUNCATION_BOUND, \
                        (met.id, order, beta, d)
    assert raised == 3 * 11 * 5             # delta = 1.0 is too large in every case


def test_flat_series():
    sol = v_series(0, metric.BS_S4.series_coeffs(8), 8)
    assert all(c == 0 for c in sol.coeffs)


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-3, max_value=F(-1, 12), max_denominator=12))
def test_recurrence_oracle_agree_random_beta(beta):
    coeffs = metric.BS_S4.series_coeffs(8)
    a = v_series(beta, coeffs, 8)
    b = v_series_oracle(beta, coeffs, 8)
    assert a.coeffs == b.coeffs


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.lists(rationals, max_size=12),
       st.one_of(st.fractions(min_value=-40, max_value=5, max_denominator=60),
                 st.floats(-40.0, 5.0)))
def test_v_series_matches_per_beta_recurrence(order, phi_tail, beta):
    # phi with odd terms too; beta as given by shooting (float) or exact
    phi = [F(1)] + phi_tail
    sol = v_series(beta, phi, order)
    psi = FormalSeries(phi, order).inverse()
    assert list(sol.coeffs) == recurrence_oracle(F(beta), psi, order)
    assert sol.beta == F(beta) and sol.order == order
    assert sol.metric_coeffs == tuple(FormalSeries(phi, order).coeffs)


def test_beta_polynomial_degrees():
    for met in BACKENDS:
        phi = tuple(FormalSeries(met.series_coeffs(12), 12).coeffs)
        for n, (num, den) in enumerate(series._beta_polynomials(phi, 12)):
            assert len(num) - 1 <= n // 2 and den > 0


def test_v_series_rejects_bad_input():
    with pytest.raises(ValueError):
        v_series(F(-1), [1, 0, 0], 1)
    with pytest.raises(ValueError):
        v_series(F(-1), [2, 0, 0], 2)


def test_v_series_pinned_by_recurrence_at_seven_betas():
    # each v_n is a polynomial in beta of degree <= 12 // 2: seven
    # distinct betas fix all of them exactly
    betas = BETAS + (F(0), F(7, 2), F(-25, 2))
    assert len(set(betas)) == 7
    for met in BACKENDS:
        coeffs = met.series_coeffs(12)
        psi = FormalSeries(coeffs, 12).inverse()
        for beta in betas:
            assert list(v_series(beta, coeffs, 12).coeffs) == \
                recurrence_oracle(beta, psi, 12), (met.id, beta)


def test_beta_derivative_matches_bps_family():
    # euclidean: v = 2 log(m r / sinh(m r)) with beta = -m^2/3
    m = 1.3
    sol = v_series(F(-169, 300), metric.EUCLIDEAN.series_coeffs(12), 12)
    dm_dbeta = -1.5 / m
    for r in (0.01, 0.05, 0.1):
        x = m * r
        dv = 2.0 * (1.0 / m - r / math.tanh(x)) * dm_dbeta
        dw = -2.0 * (1.0 / math.tanh(x) - x / math.sinh(x) ** 2) * dm_dbeta
        got = sol.beta_derivative_at(r)        # the closed forms cancel
        assert abs(got[0] - dv) <= 1e-10 * abs(dv)   # to ~1e-16 / r^2
        assert abs(got[1] - dw) <= 1e-10 * abs(dw)


def test_beta_derivative_matches_exact_difference():
    # v_n is a polynomial in beta of degree <= 6: the exact central
    # difference over +-h differs from the derivative by O(h^2)
    h = F(1, 10 ** 6)
    for met in BACKENDS:
        coeffs = met.series_coeffs(12)
        for beta in BETAS:
            lo, hi = v_series(beta - h, coeffs, 12), v_series(beta + h, coeffs, 12)
            mid = v_series(beta, coeffs, 12)
            for r in (0.03, 0.1):
                dv = float(sum((b - a) * F(r) ** n for n, (a, b) in
                               enumerate(zip(lo.coeffs, hi.coeffs))) / (2 * h))
                dw = float(sum(n * (b - a) * F(r) ** (n - 1) for n, (a, b) in
                               enumerate(zip(lo.coeffs, hi.coeffs)) if n)
                           / (2 * h))
                got = mid.beta_derivative_at(r)
                assert abs(got[0] - dv) <= 1e-11 * abs(dv), (met.id, beta, r)
                assert abs(got[1] - dw) <= 1e-11 * abs(dw), (met.id, beta, r)
