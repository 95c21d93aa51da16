"""Formal power series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2mono import metric
from g2mono.fps import FormalSeries
from series_oracle import compose, differentiate, series_exp

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def coeff_lists(min_size=1, max_size=6):
    return st.lists(rationals, min_size=min_size, max_size=max_size)


def reversion_oracle(f):
    """Compositional inverse solved term by term: the residual of
    f(g) - x at order k is linear in g_k with coefficient a1."""
    n = f.order
    g = FormalSeries([0, 1 / f[1]], n)
    for k in range(2, n + 1):
        err = compose(f, g)[k]
        g = FormalSeries([g[i] for i in range(k)] + [-err / f[1]], n)
    return g


def mul_oracle(f, g):
    """Term-by-term truncated product, one Fraction operation per term."""
    n = min(f.order, g.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f[i] * g[j]
    return FormalSeries(out)


sparse_rationals = st.one_of(st.just(F(0)), rationals,
                             st.fractions(max_denominator=10 ** 6))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12),
       st.lists(sparse_rationals, max_size=13),
       st.lists(sparse_rationals, max_size=13))
def test_mul_matches_termwise_oracle(n1, n2, a, b):
    f, g = FormalSeries(a, n1), FormalSeries(b, n2)
    for x, y in ((f, g), (g, f)):
        got = x * y
        assert got.order == min(n1, n2)
        assert got.coeffs == mul_oracle(x, y).coeffs
        assert all(type(c) is F for c in got.coeffs)


def test_add_mul_basics():
    f = FormalSeries([1, 2, 3], 4)
    g = FormalSeries([0, 1], 4)
    assert (f + g)[1] == 3
    assert (f * g)[1] == 1
    assert (f * g)[2] == 2
    assert (f * g)[0] == 0


def test_inverse():
    f = FormalSeries([1, 1], 6)          # 1 + x
    inv = f.inverse()
    for k in range(7):
        assert inv[k] == (-1) ** k       # geometric series
    assert (f * inv) == FormalSeries([1], 6)


def test_exp_known():
    # exp(x) coefficients 1/k!
    f = series_exp(FormalSeries([0, 1], 6))
    fact = 1
    for k in range(7):
        if k:
            fact *= k
        assert f[k] == F(1, fact)


def pow_oracle(f, p):
    """f^p for f_0 = 1 by the Fraction recurrence
    k f_k = sum_{j=1..k} (j p - (k - j)) a_j f_{k-j}, one Fraction
    operation per term."""
    p = F(p)
    n = f.order
    out = [F(1)] + [F(0)] * n
    for k in range(1, n + 1):
        acc = F(0)
        for j in range(1, k + 1):
            if f[j]:
                acc += (j * p - (k - j)) * f[j] * out[k - j]
        out[k] = acc / k
    return FormalSeries(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.lists(sparse_rationals, max_size=14),
       st.sampled_from([F(-1, 4), F(1, 2), F(-3), F(0), F(7, 3)]))
def test_pow_matches_fraction_recurrence(n, tail, p):
    f = FormalSeries([1] + tail, n)
    got = f.pow(p)
    assert got.order == n
    assert got.coeffs == pow_oracle(f, p).coeffs
    assert all(type(c) is F for c in got.coeffs)


def test_bs_series_unchanged_by_integer_pow(monkeypatch):
    reversions = [0]
    reversion = FormalSeries.reversion

    def counted(self):
        reversions[0] += 1
        return reversion(self)

    monkeypatch.setattr(FormalSeries, "reversion", counted)
    fast = [metric._bs_series_coeffs(n) for n in range(21)]
    assert reversions[0] == 21
    monkeypatch.setattr(FormalSeries, "pow", pow_oracle)
    assert [metric._bs_series_coeffs(n) for n in range(21)] == fast


def test_bs_series_is_built_as_deep_as_it_returns():
    # order n + 1 fills phi_0 .. phi_n; a deeper build changes none of them
    for n in range(25):
        assert metric._bs_series_coeffs(n) == metric._bs_series_coeffs(n + 8)[:n + 1]


def test_pow_sqrt():
    # (1+x)^(1/2) * (1+x)^(1/2) == 1 + x
    f = FormalSeries([1, 1], 8)
    s = f.pow(F(1, 2))
    assert (s * s) == f.truncate(8)


def test_reversion_roundtrip():
    f = FormalSeries([0, 1, F(1, 2), F(-1, 3)], 7)
    g = f.reversion()
    assert compose(f, g) == FormalSeries([0, 1], 7)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), rationals.filter(bool), st.data())
def test_reversion_matches_oracle(n, a1, data):
    rest = data.draw(st.lists(rationals, max_size=n - 1))
    f = FormalSeries([0, a1] + rest, n)
    g = f.reversion()
    assert g.order == n
    assert g.coeffs == reversion_oracle(f).coeffs
    x = FormalSeries([0, 1], n)
    assert compose(f, g) == x
    assert compose(g, f) == x


def test_bs_series_matches_oracle_reversion(monkeypatch):
    fast = metric._bs_series_coeffs(12)
    monkeypatch.setattr(FormalSeries, "reversion", reversion_oracle)
    assert metric._bs_series_coeffs(12) == fast


def test_reversion_requires_linear_head():
    for cs in ([1, 1], [0, 0, 1]):
        with pytest.raises(ValueError):
            FormalSeries(cs, 4).reversion()


def test_integrate_differentiate():
    f = FormalSeries([1, 2, 3], 5)
    assert differentiate(f.integrate()) == f.truncate(5)


def test_shift():
    f = FormalSeries([0, 0, 1, 5], 5)
    assert f.shift(-2)[0] == 1
    assert f.shift(-2)[1] == 5


@settings(max_examples=40, deadline=None)
@given(coeff_lists(), coeff_lists(), coeff_lists())
def test_mul_associative(a, b, c):
    n = 5
    f, g, h = (FormalSeries(x, n) for x in (a, b, c))
    assert ((f * g) * h) == (f * (g * h))


@settings(max_examples=40, deadline=None)
@given(coeff_lists(min_size=2), coeff_lists(min_size=2))
def test_exp_additive(a, b):
    n = 5
    a[0] = b[0] = F(0)                  # exp needs zero constant term
    f, g = FormalSeries(a, n), FormalSeries(b, n)
    assert series_exp(f + g) == series_exp(f) * series_exp(g)


@settings(max_examples=30, deadline=None)
@given(coeff_lists(min_size=1))
def test_inverse_roundtrip(a):
    n = 5
    a[0] = F(1)
    f = FormalSeries(a, n)
    assert (f * f.inverse()) == FormalSeries([1], n)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(FormalSeries([1, 1], 3))


@pytest.mark.parametrize("call, exc, match", [
    (lambda: FormalSeries([0, 1, 2]).inverse(), ZeroDivisionError,
     "zero constant term"),
    (lambda: FormalSeries([0, 1, 2]).shift(-2), ValueError,
     "shift would drop nonzero low-order terms"),
    (lambda: FormalSeries([2, 1]).pow(Fraction(1, 2)), ValueError,
     "pow requires constant term 1"),
], ids=["inverse", "shift", "pow"])
def test_fps_input_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
