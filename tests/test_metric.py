"""Metric backgrounds against independent quadrature oracles."""

import json
import math
import textwrap
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from g2mono import metric
from g2mono.cli import main
from g2mono.metric import (BS_CP2, BS_S4, EUCLIDEAN, HYPERBOLIC, DomainError,
                           NonparabolicRequired, UnsupportedBackend, bs_f,
                           bs_green_of_s, bs_h2_of_s, get_metric, load_custom,
                           rho_of_s, s_of_rho)


def test_rho_of_s_quadrature_oracle():
    for s in (0.3, 1.0, 5.0, 40.0):
        ref, _ = quad(lambda t: (1.0 + t * t) ** -0.25, 0.0, s, limit=200)
        assert abs(rho_of_s(s) - ref) <= 1e-12 * (1 + ref)


def test_rho_of_s_against_mpmath():
    mp = pytest.importorskip("mpmath")
    ss = np.geomspace(1e-8, 1e20, 561)
    with mp.workdps(30):
        ref = np.array([float(mp.mpf(s) * mp.hyp2f1(0.25, 0.5, 1.5, -mp.mpf(s) ** 2))
                        for s in ss])
    assert np.max(np.abs(rho_of_s(ss) / ref - 1.0)) <= 1e-15


def test_rho_and_its_inverse_are_the_identity_at_tiny_s():
    # rho(s) = s - s^5/10 + ..., so below 2^-27 (s^4/10 < 2^-109) both
    # maps round to s itself, down to the smallest subnormal
    ss = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 2.0 ** -27, 2001)])
    for fn in (rho_of_s, s_of_rho):
        assert [fn(s) for s in ss.tolist()] == ss.tolist(), fn.__name__
        assert fn(ss).tolist() == ss.tolist(), fn.__name__


def test_s_of_rho_roundtrip():
    ss = np.geomspace(1e-3, 1e3, 40)
    back = s_of_rho(rho_of_s(ss))
    assert np.max(np.abs(back / ss - 1.0)) <= 1e-12


def s_of_rho_loop(rho):
    """One point at a time: an independent reference for s_of_rho,
    Newton's method with its own start and stop rule, in scalar
    arithmetic.  A bracket [lo, hi] with rho(lo) < rho <= rho(hi) is
    kept, and a step that leaves it is replaced by bisection, so the
    iteration cannot cycle.  It stops at an exact root of the rounded
    rho(s), on a Newton step of at most 1e-15 max(1, s), or where the
    bracket holds no float between its ends."""
    if rho == 0.0:
        return 0.0
    s = rho if rho < 1.0 else ((rho + 1.198) / 2.0) ** 2
    lo, hi = 0.0, s
    while rho_of_s(hi) < rho:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        g = rho_of_s(s) - rho
        if g == 0.0:
            return s
        if g < 0.0:
            lo = s
        else:
            hi = s
        s_new = s - g * (1.0 + s * s) ** 0.25
        if lo < s_new < hi:
            if abs(s_new - s) <= 1e-15 * max(1.0, s):
                return s_new
        else:
            s_new = 0.5 * (lo + hi)
            if s_new in (lo, hi):
                return s
        s = s_new
    raise AssertionError(f"no convergence at rho={rho}")


# radii at which plain Newton with the stop rule |ds| <= 1e-15 max(1, s)
# never stopped on the rounding of the former rho(s), scipy's 2F1: its
# step 2-cycled (1.73 lies on the profile grid of solve_monopole(BS_S4,
# 4.0)); kept as hard cases for the series rho(s)
_NEWTON_CYCLES = [1.7299719298181815, 1.302211934933402, 1.5314568172031044,
                  1.3337061351654997, 1.5171096550417547, 1.282737577543451]


def test_s_of_rho_matches_scalar_loop():
    # the series rounds rho(s) to about an ulp, so rho(s) - rho changes sign
    # over a band of a few ulp in s, and each side ends somewhere in it:
    # s_of_rho after three Halley steps, the reference at a sign change, a
    # bracket of adjacent floats or a Newton step below 1e-15 max(1, s).
    # The bound is that stop rule's tolerance, which covers the band
    # (observed: up to 7 ulp, at rho = 4.37; 3 ulp at rho = 1.53 of
    # _NEWTON_CYCLES; 8.7e-16 relative at most, at rho = 1.71; at most
    # 3.3e-16 absolute where s < 1)
    rho = np.concatenate([np.geomspace(1e-8, 1e8, 2001), [0.0, 1.0],
                          _NEWTON_CYCLES])
    ref = np.array([s_of_rho_loop(p) for p in rho])
    assert np.all(np.abs(s_of_rho(rho) - ref) <= 1e-15 * np.maximum(1.0, ref))


def test_s_of_rho_interleaved_zeros():
    rho = np.array([0.0, 0.3, 0.0, 0.0, 7.0, 0.0, 2e4, 0.0])
    s = s_of_rho(rho)
    assert s.shape == rho.shape
    assert np.all(s[rho == 0] == 0.0)
    assert np.all(s[rho > 0] > 0.0)
    assert np.array_equal(s[rho > 0], s_of_rho(rho[rho > 0]))
    assert s_of_rho(0.0) == 0.0 and s_of_rho(np.zeros(3)).tolist() == [0.0] * 3


def test_s_of_rho_scalar_equals_array_element():
    rho = np.geomspace(1e-6, 1e5, 23)
    s = s_of_rho(rho)
    for i, p in enumerate(rho):
        one = s_of_rho(float(p))
        assert type(one) is float
        assert one == s[i]
        assert s_of_rho(p) == s[i]               # numpy scalar input


def test_s_of_rho_roundtrip_wide_range():
    rho = np.geomspace(1e-8, 1e8, 2001)
    back = rho_of_s(s_of_rho(rho))
    assert np.max(np.abs(back / rho - 1.0)) <= 1e-14


def test_s_of_rho_rejects_negative_entries():
    for bad in (-1e-300, -2.0, [1.0, -0.5, 3.0], np.array([0.0, 0.0, -1.0])):
        with pytest.raises(DomainError):
            s_of_rho(bad)


def test_s_of_rho_takes_three_steps_per_radius(monkeypatch):
    evaluated = [0]
    rho_series = metric._rho

    def counted(s):
        evaluated[0] += np.size(s)
        return rho_series(s)

    monkeypatch.setattr(metric, "_rho", counted)
    rho = np.concatenate([_NEWTON_CYCLES, [0.0, 5e-324],
                          np.geomspace(1e-8, 0.5 * metric._RHO_FAR, 200)])
    s = s_of_rho(rho)
    assert evaluated[0] == 3 * rho.size
    for p, one in zip(rho, s):
        evaluated[0] = 0
        assert s_of_rho(float(p)) == one
        assert evaluated[0] == 3


def test_s_of_rho_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rho = np.concatenate([_NEWTON_CYCLES, np.geomspace(1e-6, 1e6, 61)])
    with mp.workdps(40):
        for p, s in zip(rho, s_of_rho(rho)):
            ref = mp.findroot(
                lambda t: t * mp.hyp2f1(0.25, 0.5, 1.5, -t * t) - mp.mpf(p),
                mp.mpf(s))
            assert abs(mp.mpf(s) / ref - 1) <= 4e-15, p


def test_bs_green_quadrature_oracle():
    # G(s) = int_s^inf f(t) / (2 h^2(t)) dt
    def integrand(t):
        return (1.0 + t * t) ** -0.25 / (2.0 * t * t * np.sqrt(1.0 + t * t))

    for s in (0.5, 1.0, 3.0, 10.0):
        ref, _ = quad(integrand, s, np.inf, limit=200, epsabs=1e-13,
                      epsrel=1e-12)
        assert abs(bs_green_of_s(s) - ref) <= 1e-11 * ref


# G(s) at small s, from mpmath's 2F1 at 40 digits
_BS_GREEN_SMALL_S = [(1e-8, 49999999.344485615177), (1e-4, 4999.3445231114268607),
                     (1e-2, 49.34823550205798527), (3e-2, 16.022399326429553181)]


@pytest.mark.parametrize("s,ref", _BS_GREEN_SMALL_S)
def test_bs_green_small_s(s, ref):
    assert abs(bs_green_of_s(s) / ref - 1.0) <= 5e-14
    assert abs(bs_green_of_s(np.array([s]))[0] / ref - 1.0) <= 5e-14


@pytest.mark.parametrize("ss,bound", [
    (np.logspace(-12, 2), 5e-14),
    (np.linspace(0.02, 0.0299, 12), 1e-15),
    # a window inside the series in w = s^2/(1+s^2), and one across its
    # switch to the series in u = 1/(1+s^2) at s = 1
    (np.linspace(0.06, 0.0699, 12), 1e-15),
    (np.geomspace(0.03, 3, 400), 5e-14),
], ids=["logspace", "below-switch", "below-switch-0.07", "across-switch"])
def test_bs_green_relative_error_against_mpmath(ss, bound):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = np.array([float(mp.mpf(1) / 5 * u ** mp.mpf(1.25)
                              * mp.hyp2f1(1.25, 1.5, 2.25, u))
                        for u in (1 / (1 + mp.mpf(s) ** 2) for s in ss)])
    assert np.max(np.abs(bs_green_of_s(ss) / ref - 1.0)) <= bound


def test_bs_green_at_zero_and_tiny_radius(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bs_green_of_s(0.0) == np.inf
        assert np.isinf(bs_green_of_s(np.array([0.0, 1.0]))[0])
    assert main(["green", "--metric", "bs_s4", "--charge", "1",
                 "--r", "1e-9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["G"] * 2e-9 - 1.0) <= 1e-8


def test_green_tail_euclidean_hyperbolic():
    for met in (EUCLIDEAN, HYPERBOLIC):
        for r in (0.2, 1.0, 4.0):
            ref, _ = quad(lambda t: 1.0 / (2.0 * met.h2(t)), r, np.inf, limit=200)
            assert abs(met.green_tail(r) - ref) <= 1e-10 * (1 + ref)


def test_green_is_antiderivative():
    # G'(r) = -1/(2 h^2) on every backend
    for met in (EUCLIDEAN, HYPERBOLIC, BS_S4):
        for r in (0.5, 2.0, 8.0):
            h = 1e-5 * r
            fd = (met.green_tail(r + h) - met.green_tail(r - h)) / (2 * h)
            assert abs(fd + 1.0 / (2.0 * met.h2(r))) <= 1e-7 / r


def test_series_matches_h2():
    # r^2 * series(r) ~ h^2(r) for small r
    for met in (EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2):
        cs = met.series_coeffs(10)
        for r in (1e-3, 1e-2, 0.1):
            val = r * r * sum(float(c) * r ** i for i, c in enumerate(cs))
            assert abs(val / met.h2(r) - 1.0) <= 1e-10 + 10 * r ** 10


def test_chart_contract():
    rs = np.geomspace(1e-3, 1e3, 61)
    for met in (EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2):
        ch = met.chart
        xs = ch.x_of_r(rs)
        assert np.max(np.abs(ch.r_of_x(xs) / rs - 1.0)) <= 1e-13, met.id
        assert np.max(np.abs(ch.h2_of_x(xs) / met.h2(rs) - 1.0)) <= 1e-12, met.id
        assert np.max(np.abs(ch.green_of_x(xs) / met.green_tail(rs) - 1.0)) <= 1e-12, met.id
        dx = 1e-6 * xs
        fd = (ch.r_of_x(xs + dx) - ch.r_of_x(xs - dx)) / (2.0 * dx)
        assert np.max(np.abs(ch.dr_dx(xs) / fd - 1.0)) <= 1e-8, met.id
    assert BS_S4.chart is metric.S_CHART and BS_CP2.chart is metric.S_CHART
    assert EUCLIDEAN.chart.x_of_r(2.5) == 2.5


def test_bs_series_low_order():
    cs = BS_S4.series_coeffs(6)
    assert cs[0] == 1
    assert cs[2] == Fraction(2, 3)
    assert cs[4] == Fraction(1, 36)
    assert cs[6] == Fraction(1, 252)


def test_hyperbolic_series():
    cs = HYPERBOLIC.series_coeffs(4)
    assert cs[0] == 1
    assert cs[2] == Fraction(1, 3)
    assert cs[4] == Fraction(2, 45)


def test_bs_backends_share_profile():
    rs = np.array([0.3, 1.0, 7.0])
    assert np.allclose(BS_S4.h2(rs), BS_CP2.h2(rs), rtol=0, atol=0)


def test_domain_errors():
    with pytest.raises(DomainError):
        BS_S4.green_tail(-1.0)
    with pytest.raises(UnsupportedBackend):
        get_metric("nope")


NAN = float("nan")
NAN_GUARDED = {
    "h2": EUCLIDEAN.h2,
    "h2_bs": BS_S4.h2,
    "green_tail": HYPERBOLIC.green_tail,
    "rho_of_s": rho_of_s,
    "s_of_rho": s_of_rho,
    "bs_green_of_s": bs_green_of_s,
}


@pytest.mark.parametrize("name", NAN_GUARDED)
@pytest.mark.parametrize("x", [NAN, np.float64(NAN), np.array([1.0, NAN])],
                         ids=["float", "numpy-scalar", "array"])
def test_nan_radius_rejected(name, x):
    with pytest.raises(DomainError):
        NAN_GUARDED[name](x)


@pytest.mark.parametrize("x", [-1.0, -5e-324, np.float64(-2.0), np.array(-3.0), [1.0, -0.5]],
                         ids=["float", "tiny", "numpy-scalar", "0-d", "array"])
@pytest.mark.parametrize("fn", [rho_of_s, s_of_rho, bs_green_of_s], ids=lambda f: f.__name__)
def test_bs_maps_reject_negative_input(fn, x):
    # G(-1) used to come out as -1.458, and G(NaN) as NaN
    with pytest.raises(DomainError, match=">= 0"):
        fn(x)


@pytest.mark.parametrize("met", [EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2],
                         ids=lambda m: m.id)
def test_h2_float_path_domain(met):
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            met.h2(bad)


# each switch of the BS maps (rho_of_s at 1 and _S_FAR, s_of_rho at 1.5
# and _RHO_FAR, G at 1) with its neighbouring floats, and the values there,
# recorded from the code that gave floats and arrays separate paths except
# at rho = 1.5, where s_of_rho starts from the series head since 12.0.0
_EDGES = sorted({p for b in (0.0, 1.0, 1.5, metric._S_FAR, metric._RHO_FAR)
                 for p in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
                 if p >= 0})
_EDGE_VALUES = {
    "rho_of_s": [
        0.0, 5e-324, 0.9374897507469362, 0.9374897507469363, 0.9374897507469364,
        1.333092794855296, 1.3330927948552964, 1.3330927948552964, 282841.5143259121,
        282841.5143259121, 282841.51432591217, 19999999998.801857, 19999999998.80186,
        19999999998.80186],
    "s_of_rho": [
        0.0, 5e-324, 1.075036756035487, 1.0750367560354868, 1.0750367560354872,
        1.7299802644622404, 1.7299802644622408, 1.7299802644622417, 9.999999999999997e+19,
        1e+20, 1.0000000000000003e+20, 2.4999999999999992e+39, 2.5e+39,
        2.5000000000000007e+39],
    "bs_green_of_s": [
        math.inf, math.inf, 0.14681322297356514, 0.14681322297356492, 0.1468132229735649,
        0.06190981055532568, 0.06190981055532568, 0.06190981055532564,
        3.5355339064622465e-27, 3.535533906462245e-27, 3.535533906462244e-27,
        2.000000000000001e-51, 2e-51, 1.9999999999999994e-51],
    # BS_S4.h2 and green_tail, from r = 5e-324 on
    "h2": [
        0.0, 1.6968411706989557, 1.6968411706989548, 1.6968411706989563, 5.980297658465792,
        5.980297658465798, 5.9802976584658065, 9.99999999999999e+59, 1e+60,
        1.000000000000001e+60, 1.5624999999999984e+118, 1.5625e+118, 1.5625000000000013e+118],
    "green_tail": [
        math.inf, 0.12662096780500087, 0.12662096780500093, 0.12662096780500082,
        0.04489755890416298, 0.04489755890416295, 0.0448975589041629, 2.0000000000000018e-51,
        2e-51, 1.9999999999999982e-51, 6.400000000000005e-100, 6.399999999999999e-100,
        6.399999999999995e-100],
}


def test_bs_float_path_bit_identical():
    maps = {"rho_of_s": rho_of_s, "s_of_rho": s_of_rho, "bs_green_of_s": bs_green_of_s,
            "h2": BS_S4.h2, "green_tail": BS_S4.green_tail}
    for name, fn in maps.items():
        xs = np.array(_EDGES[len(_EDGES) - len(_EDGE_VALUES[name]):])
        want = _EDGE_VALUES[name]
        assert [fn(float(x)) for x in xs] == want, name
        assert [fn(np.asarray(x)) for x in xs] == want, name
        assert fn(xs).tolist() == want, name
        assert fn(xs[::-1]).tolist() == want[::-1], name
    xs = np.concatenate([[0.0, 0.5, 1.0, 3.0], np.geomspace(1e-8, 1e8, 2001)])
    assert np.array_equal(np.concatenate([rho_of_s(c) for c in np.array_split(xs, 60)]),
                          rho_of_s(xs))
    assert np.array_equal(rho_of_s(xs[:40].reshape(4, 10)), rho_of_s(xs)[:40].reshape(4, 10))
    for fn in (bs_f, bs_h2_of_s, rho_of_s):
        scalar = np.array([fn(float(x)) for x in xs])
        assert type(fn(float(xs[5]))) is float
        # a 0-d array takes the array path, as scalar calls used to
        assert np.array_equal(scalar, [fn(np.asarray(x)) for x in xs])
        # a whole array may use numpy's SIMD pow, which can round the other
        # way (bs_f); sqrt and products are correctly rounded (bs_h2_of_s)
        ulps = np.abs(fn(xs) - scalar) / np.spacing(scalar)
        assert ulps.max() <= (1.0 if fn is bs_f else 0.0)


def test_h2_float_path_bit_identical(tmp_path):
    custom = load_custom(_write_custom(tmp_path))
    no_table = tmp_path / "series_only.txt"
    no_table.write_text("type=custom\ncoeffs=1,0,1/3,0,-1/7\n")
    rs = np.concatenate([np.geomspace(1e-6, 1e3, 301), [0.5, 100.0, 150.0]])
    for met in (EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2, custom,
                load_custom(str(no_table))):
        scalar = [met.h2(float(r)) for r in rs]
        assert all(type(v) is float for v in scalar), met.id
        assert scalar == [met.h2(np.asarray(r)) for r in rs], met.id
        assert scalar == [met.h2(r) for r in rs], met.id      # numpy scalars


def test_hyperbolic_h2_float_within_3_ulp_of_array():
    # a float takes math.sinh, an array np.sinh: both clip r at 350
    rs = np.concatenate([np.geomspace(1e-8, 1e3, 4001), np.linspace(349.0, 351.0, 201),
                         [math.nextafter(350.0, 0.0), 350.0, math.nextafter(350.0, 400.0)]])
    array = HYPERBOLIC.h2(rs)
    floats = np.array([HYPERBOLIC.h2(float(r)) for r in rs])
    assert np.all(np.abs(floats - array) <= 3.0 * np.spacing(array))
    assert HYPERBOLIC.h2(351.0) == HYPERBOLIC.h2(350.0) == math.sinh(350.0) ** 2


def test_custom_h2_array_matches_floats(tmp_path):
    # series (r <= 0.5), table and power-law tail (r > 100) in one array;
    # energy densities and envelope grids take the array body
    met = load_custom(_write_custom(tmp_path, p=1.3, coeffs="1,0,1/3,0,-1/7"))
    rs = np.concatenate([np.geomspace(1e-4, 1e3, 500), [0.5, 100.0]])
    out = met.h2(rs)
    assert isinstance(out, np.ndarray) and out.shape == rs.shape
    assert out.tolist() == [met.h2(float(r)) for r in rs]
    assert np.array_equal(met.h2(rs.reshape(2, -1)), out.reshape(2, -1))


def test_custom_h2_float_is_np_interp_to_the_bit(tmp_path):
    # a float's table lookup is bisect plus np.interp's own rule; check it
    # against np.interp on every row, both neighbouring floats of each row
    # and 200k draws of a jittered table
    rng = np.random.default_rng(28)
    rs = np.sort(np.geomspace(0.4, 300.0, 257) * rng.uniform(0.97, 1.03, 257))
    hs = rs ** 1.4 * rng.uniform(0.9, 1.1, 257)
    (tmp_path / "t.csv").write_text(
        "r,h\n" + "".join(f"{r!r},{h!r}\n" for r, h in zip(rs.tolist(), hs.tolist())))
    (tmp_path / "m.txt").write_text("type=custom\ncoeffs=1,0,1/3\ntable=t.csv\n")
    met = load_custom(str(tmp_path / "m.txt"))
    log_r, log_h = np.log(rs), np.log(hs)
    points = np.concatenate([rs, np.nextafter(rs, 0.0), np.nextafter(rs, np.inf),
                             rng.uniform(rs[0], rs[-1], 200_000)])
    points = points[(points > rs[0]) & (points <= rs[-1])]
    assert len(points) > 200_000
    got = np.array([met.h2(r) for r in points.tolist()])
    h = np.array([np.exp(np.interp(np.log(r), log_r, log_h)) for r in points.tolist()])
    assert got.tobytes() == (h * h).tobytes()


def test_custom_series_branch_matches_pointwise_horner(tmp_path):
    coeffs = "1,0,1/3,0,-2/45,0,1/7"
    met = load_custom(_write_custom(tmp_path, coeffs=coeffs))

    def phi(x):                         # one point at a time, in Python floats
        acc = 0.0
        for c in reversed(coeffs.split(",")):
            acc = acc * x + float(Fraction(c))
        return acc

    rs = np.concatenate([np.linspace(1e-4, 0.5, 777), [1e-300]])
    assert np.array_equal(met.h2(rs), rs ** 2 * np.array([phi(x) for x in rs]))


def test_get_metric_registry():
    assert get_metric("euclidean") is EUCLIDEAN
    assert get_metric("bs_cp2") is BS_CP2


def test_bs_manifolds_share_one_profile():
    assert (BS_S4.id, BS_CP2.id) == ("bs_s4", "bs_cp2")
    assert BS_CP2._h2 is BS_S4._h2 and BS_CP2._green is BS_S4._green
    assert BS_CP2._series is BS_S4._series and BS_CP2.chart is BS_S4.chart


# -- custom backend ---------------------------------------------------------

def _write_custom(tmp_path, p=1.0, coeffs="1,0,1/3"):
    rs = np.geomspace(0.5, 100.0, 120)
    hs = rs ** p * np.exp(0.0)
    table = tmp_path / "table.csv"
    lines = ["r,h"] + [f"{r},{h}" for r, h in zip(rs, hs)]
    table.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "metric.txt"
    cfg.write_text(textwrap.dedent(f"""\
        type=custom
        coeffs={coeffs}
        table={table}
    """))
    return str(cfg)


def test_custom_backend_green(tmp_path):
    met = load_custom(_write_custom(tmp_path, p=1.0))
    assert met.nonparabolic
    # pure power law h = r beyond the series region: G = 1/(2r)
    for r in (2.0, 10.0, 150.0):
        assert abs(met.green_tail(r) - 0.5 / r) <= 1e-6 / r


def test_gauss_legendre_literals_are_numpys():
    # the rule below a custom table, mapped to [0, 1], bit for bit
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(20)
    assert metric._GL_NODES.tobytes() == (0.5 * (nodes + 1.0)).tobytes()
    assert metric._GL_WEIGHTS.tobytes() == (0.5 * weights).tobytes()


def test_custom_green_against_mpmath(tmp_path):
    # G = int_r^inf dt / (2 h^2) with h^2 as the backend defines it: the
    # series below the table, log-log linear segments on it, and past it
    # the power law, read off the backend's own h2 far out
    mp = pytest.importorskip("mpmath")
    rs = np.geomspace(0.4, 60.0, 41)
    hs = rs * (1.0 + rs * rs) ** 0.1
    coeffs = "1,0,1/5,0,-2/25"
    (tmp_path / "t.csv").write_text(
        "r,h\n" + "".join(f"{r!r},{h!r}\n" for r, h in zip(rs.tolist(), hs.tolist())))
    (tmp_path / "m.txt").write_text(f"type=custom\ncoeffs={coeffs}\ntable=t.csv\n")
    met = load_custom(str(tmp_path / "m.txt"))
    with mp.workdps(30):
        poly = [mp.mpf(Fraction(c).numerator) / Fraction(c).denominator
                for c in coeffs.split(",")]
        log_r = [mp.log(r) for r in rs.tolist()]
        log_h = [mp.log(h) for h in hs.tolist()]

        def segment(i, lo):
            p = (log_h[i + 1] - log_h[i]) / (log_r[i + 1] - log_r[i])
            return mp.quad(lambda t: 1 / (2 * mp.exp(2 * (log_h[i] + p * (mp.log(t) - log_r[i])))),
                           [lo, rs[i + 1]])

        x1, x2 = 1e3, 1e4
        p = mp.log(mp.mpf(met.h2(x2)) / met.h2(x1)) / (2 * mp.log(mp.mpf(x2) / x1))
        c2 = mp.mpf(met.h2(x1)) / mp.mpf(x1) ** (2 * p)

        def tail(x):
            return mp.mpf(x) ** (1 - 2 * p) / (2 * c2 * (2 * p - 1))

        at_row = [tail(rs[-1])]                 # G at each table row
        for i in reversed(range(len(rs) - 1)):
            at_row.append(at_row[-1] + segment(i, rs[i]))
        at_row.reverse()

        def green(x):
            if x >= rs[-1]:
                return tail(x)
            if x < rs[0]:
                return at_row[0] + mp.quad(
                    lambda t: 1 / (2 * t * t * mp.polyval(poly[::-1], t)), [x, rs[0]])
            i = int(np.searchsorted(rs, x, side="right")) - 1
            return segment(i, x) + at_row[i + 1]

        xs = np.concatenate([[1e-8, 1e-3, 0.1, 0.39], rs[::8],
                             [0.77, 3.3, 59.0, 61.0, 1e3, 1e6]])
        ref = np.array([float(green(float(x))) for x in xs])
    got = met.green_tail(xs)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-13
    assert got.tolist() == [met.green_tail(float(x)) for x in xs]


def test_custom_backend_parabolic(tmp_path):
    met = load_custom(_write_custom(tmp_path, p=0.4))
    assert not met.nonparabolic
    with pytest.raises(NonparabolicRequired):
        met.green_tail(1.0)


def test_custom_backend_series(tmp_path):
    met = load_custom(_write_custom(tmp_path))
    assert met.series_coeffs(2) == [1, 0, Fraction(1, 3)]
    with pytest.raises(UnsupportedBackend):
        met.series_coeffs(12)


def test_custom_backend_rejects_bad_header(tmp_path):
    cfg = tmp_path / "m.txt"
    cfg.write_text("type=custom\ncoeffs=2,0,1\n")
    with pytest.raises(UnsupportedBackend):
        load_custom(str(cfg))


def test_custom_table_must_start_inside_the_series_region(tmp_path):
    # the series covers r <= 0.5; a table from r = 1 would leave h
    # clamped to its first row on (0.5, 1): h2(0.6) = 1 for h = r
    def flat(r0):
        rs = np.geomspace(r0, 100.0, 120)
        table = tmp_path / f"table{r0}.csv"
        table.write_text("r,h\n" + "".join(f"{r:.17g},{r:.17g}\n" for r in rs))
        cfg = tmp_path / f"metric{r0}.txt"
        cfg.write_text(f"type=custom\ncoeffs=1{',0' * 12}\ntable={table}\n")
        return str(cfg)

    with pytest.raises(UnsupportedBackend, match="start"):
        load_custom(flat(1.0))
    assert abs(load_custom(flat(0.5)).h2(0.6) - 0.36) <= 1e-12


@pytest.mark.parametrize("coeffs, header, rows", [
    (None, "r,h", [(0.5, 0.5), (1, 1), (2, 2), (4, 4)]),
    ("1,0,1/3", "r,h", [(0.5, 0.5), (1, 1), (2, -2), (4, 4)]),
    ("1,0,1/3", "r,h", [(0, 0.5), (1, 1), (2, 2), (4, 4)]),
    ("1,0,1/3", "r,h", [(1, 1), (2, 2), (4, 4)]),
    ("1,0,1/3", "x,y", [(1, 1), (2, 2), (3, 3), (4, 4)]),
], ids=["no-coeffs", "h-negative", "r-zero", "three-rows", "no-r-h-header"])
def test_custom_backend_rejects_bad_file(tmp_path, coeffs, header, rows):
    table = tmp_path / "table.csv"
    table.write_text(header + "\n" + "".join(f"{r},{h}\n" for r, h in rows))
    cfg = tmp_path / "metric.txt"
    cfg.write_text("type=custom\n" + (f"coeffs={coeffs}\n" if coeffs else "")
                   + f"table={table}\n")
    with pytest.raises(UnsupportedBackend):
        load_custom(str(cfg))


@pytest.mark.parametrize("rows", [
    [(0.5, 0.5), (1, 1), (2, "inf"), (4, 4)],
    [(0.5, 0.5), (1, 1), (2, 2), ("inf", 4)],
], ids=["h-inf", "r-inf"])
def test_custom_table_rejects_non_finite_rows(tmp_path, capsys, rows):
    table = tmp_path / "table.csv"
    table.write_text("r,h\n" + "".join(f"{r},{h}\n" for r, h in rows))
    cfg = tmp_path / "metric.txt"
    cfg.write_text(f"type=custom\ncoeffs=1,0,1/3\ntable={table}\n")
    message = "custom table r and h must be finite and > 0"
    with pytest.raises(UnsupportedBackend, match=message):
        load_custom(str(cfg))
    out = str(tmp_path / "profile.csv")
    assert main(["solve", "--metric", str(cfg), "--mass", "1",
                 "--out", out]) == 1
    assert message in capsys.readouterr().err


def _table_metric(tmp_path, rs):
    table = tmp_path / "table.csv"
    table.write_text("r,h\n" + "".join(f"{r:.17g},{r:.17g}\n" for r in rs))
    cfg = tmp_path / "metric.txt"
    cfg.write_text(f"type=custom\ncoeffs=1,0\ntable={table}\n")
    return str(cfg)


def test_custom_sparse_table_continues_its_last_segment(tmp_path):
    # the first row is 0.5: a table must start inside the series region
    cfg = _table_metric(tmp_path, [0.5, 1.0, 10.0, 100.0, 1001.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        met = load_custom(cfg)
    assert met.nonparabolic
    assert abs(met.h2(5000.0) / 2.5e7 - 1.0) <= 1e-9
    assert main(["green", "--metric", cfg, "--charge", "1"]) == 0


def test_custom_far_field_is_the_last_segment_continued(tmp_path):
    # past the table h = h_R (r/R)^p, p the last segment's log-log slope,
    # and the metric is nonparabolic iff 2p > 1
    rng = np.random.default_rng(33)
    rs = np.sort(np.geomspace(0.5, 200.0, 64) * rng.uniform(0.97, 1.03, 64))
    for power in (1.4, 0.6, 0.4):
        hs = rs ** power * rng.uniform(0.9, 1.1, 64)
        (tmp_path / "t.csv").write_text(
            "r,h\n" + "".join(f"{r!r},{h!r}\n" for r, h in zip(rs.tolist(), hs.tolist())))
        (tmp_path / "m.txt").write_text("type=custom\ncoeffs=1,0\ntable=t.csv\n")
        met = load_custom(str(tmp_path / "m.txt"))
        p = (math.log(hs[-1]) - math.log(hs[-2])) / (math.log(rs[-1]) - math.log(rs[-2]))
        far = np.array([rs[-1] * 1.5, 1e3, 1e5, 1e8])
        assert np.allclose(met.h2(far), (hs[-1] * (far / rs[-1]) ** p) ** 2,
                           rtol=1e-13, atol=0.0)
        assert met.h2(far).tolist() == [met.h2(float(r)) for r in far]
        assert met.nonparabolic is (2.0 * p > 1.0)
        if met.nonparabolic:      # G past the table: r / (2 (2p - 1) h^2)
            assert np.allclose(met.green_tail(far), far / (2.0 * (2.0 * p - 1.0) * met.h2(far)),
                               rtol=1e-13, atol=0.0)


def test_custom_h2_is_continuous_at_the_last_row(tmp_path):
    # the far field is the table's own last segment, so h^2 meets it
    rs = np.geomspace(0.2, 60.0, 80)
    hs = rs * (1.0 + rs * rs) ** 0.2
    (tmp_path / "t.csv").write_text(
        "r,h\n" + "".join(f"{r!r},{h!r}\n" for r, h in zip(rs.tolist(), hs.tolist())))
    # blank lines and comments are skipped
    (tmp_path / "m.txt").write_text("# h = r (1 + r^2)^(1/5)\n\ntype=custom\n"
                                    "coeffs=1,0\n  # from r = 0.2\ntable=t.csv\n\n")
    met = load_custom(str(tmp_path / "m.txt"))
    R = float(rs[-1])
    assert abs(met.h2(math.nextafter(R, math.inf)) / met.h2(R) - 1.0) <= 4.4e-16


@pytest.mark.parametrize("coeffs, r0, ok", [
    ("1,0,-5" + ",0" * 10, 0.5, False),   # P = 1 - 5 r^2 < 0 past r = 0.447
    ("1,0,-15,0,50", 0.5, False),         # P < 0 between r = 0.316 and 0.447 only
    ("1,0,-8,0,16", 0.5, False),          # P = (1 - 4 r^2)^2 = 0 at the first row
    ("1,0,-8,0,16", 0.4, True),
    ("1,0,-1/3,0,0", 0.5, True),
], ids=["negative-past-0.45", "negative-inside", "zero-at-first-row", "double-root-past-table",
        "positive"])
def test_custom_series_must_be_positive_below_the_table(tmp_path, coeffs, r0, ok):
    # h^2 = r^2 P(r) is the series up to the table's first row r0, so
    # P > 0 on (0, r0] is required at load
    rs = np.geomspace(r0, 100.0, 40)
    (tmp_path / "t.csv").write_text("r,h\n" + "".join(f"{r!r},{r!r}\n" for r in rs.tolist()))
    (tmp_path / "m.txt").write_text(f"type=custom\ncoeffs={coeffs}\ntable=t.csv\n")
    if ok:
        assert load_custom(str(tmp_path / "m.txt")).h2(0.3) > 0.0
    else:
        with pytest.raises(UnsupportedBackend, match="must be > 0"):
            load_custom(str(tmp_path / "m.txt"))


RHO_WIDE = [1e-300, 1.0, 1e5, 1e78, 1e200, 1.7e308]


@pytest.mark.parametrize("met", [BS_S4, BS_CP2], ids=lambda m: m.id)
def test_bs_every_finite_radius(met):
    # past rho ~ 2.3e77 the Newton start used to overflow s^2; now s is
    # inf only where s ~ (rho/2)^2 itself overflows (rho >~ 2.7e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = np.array([s_of_rho(p) for p in RHO_WIDE])
        h2 = np.array([met.h2(p) for p in RHO_WIDE])
        G = np.array([met.green_tail(p) for p in RHO_WIDE])
        assert np.array_equal(s_of_rho(np.array(RHO_WIDE)), s)
        assert np.array_equal(met.h2(np.array(RHO_WIDE)), h2)
        assert np.array_equal(met.green_tail(np.array(RHO_WIDE)), G)
    assert s[0] == 1e-300 and s[3] == 2.5e155
    assert np.array_equal(np.isinf(s), [False] * 4 + [True] * 2)
    for p, si in zip(RHO_WIDE[:4], s):
        assert abs(rho_of_s(si) - p) <= 1e-15 * p
    assert not np.any(np.isnan(h2)) and np.all(h2[3:] == np.inf)
    assert not np.any(np.isnan(G)) and np.all(G >= 0)
    assert np.all(np.diff(G) <= 0) and np.all(G[3:] == 0.0)


def test_bs_far_asymptote_continues_newton():
    # the closed form past _RHO_FAR agrees with Newton on both sides
    rho = metric._RHO_FAR * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    s = s_of_rho(rho)
    assert np.all(np.diff(s) > 0)
    assert np.all(np.abs(rho_of_s(s) / rho - 1.0) <= 1e-15)
    assert rho_of_s(np.inf) == np.inf


@pytest.mark.parametrize("bad", [np.inf, np.nan, [1.0, np.inf], -np.inf])
def test_s_of_rho_rejects_non_finite_rho(bad):
    with pytest.raises(DomainError, match="rho"):
        s_of_rho(bad)


def test_bs_infinite_radius_names_rho():
    for fn in (BS_S4.h2, BS_S4.green_tail):
        for r in (np.inf, [1.0, np.inf]):
            with pytest.raises(DomainError, match="rho must be finite"):
                fn(r)


def test_green_command_at_a_huge_radius(capsys):
    assert main(["green", "--metric", "bs_s4", "--charge", "1",
                 "--r", "1e78"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["G"] == 0.0 and out["phi_D"] == 0.0


def test_custom_table_path_is_relative_to_the_metric_file(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    rows = "".join(f"{r!r},{r!r}\n" for r in np.geomspace(0.5, 100.0, 40).tolist())
    (tmp_path / "sub" / "t.csv").write_text("r,h\n" + rows)
    cfg = tmp_path / "sub" / "m.txt"
    cfg.write_text("type=custom\ncoeffs=1,0,0\ntable=t.csv\n")
    absolute = tmp_path / "abs.txt"
    absolute.write_text(f"type=custom\ncoeffs=1,0,0\ntable={tmp_path / 'sub' / 't.csv'}\n")
    monkeypatch.chdir(tmp_path)
    for path in ("sub/m.txt", str(cfg), "abs.txt"):
        assert abs(load_custom(path).h2(50.0) - 2500.0) <= 1e-9
    monkeypatch.chdir(tmp_path / "sub")
    assert abs(load_custom("m.txt").h2(50.0) - 2500.0) <= 1e-9


def _custom_file(tmp_path, text):
    (tmp_path / "t.csv").write_text("r,h\n0.5,0.5\n1,1\n1,1\n2,2\n")
    (tmp_path / "m.txt").write_text(text)
    return str(tmp_path / "m.txt")


def _custom_table(tmp_path, rows):
    (tmp_path / "m.txt").write_text("type=custom\ncoeffs=1,0\ntable=t.csv\n")
    (tmp_path / "t.csv").write_text("r,h\n" + rows)
    return str(tmp_path / "m.txt")


@pytest.mark.parametrize("call, exc, match", [
    (lambda tmp: load_custom(_custom_file(tmp, "coeffs=1,0,1/3\n")),
     UnsupportedBackend, "must declare type=custom"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0\ntable=t.csv\n")),
     UnsupportedBackend, "radii must be increasing"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0\ntabel=t.csv\n")),
     UnsupportedBackend, "'tabel=t.csv'"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0\ntable t.csv\n")),
     UnsupportedBackend, "'table t.csv'"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0\ncoeffs=1,0,1\n")),
     UnsupportedBackend, "'coeffs=1,0,1'"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0,1/0\n")),
     UnsupportedBackend, r"m\.txt: .*'coeffs=1,0,1/0'"),
    (lambda tmp: load_custom(_custom_file(tmp, "type=custom\ncoeffs=1,0,,0\n")),
     UnsupportedBackend, r"m\.txt: .*'coeffs=1,0,,0'"),
    (lambda tmp: load_custom(_custom_table(tmp, "0.5,0.5\n1,1\nx,2\n3,3\n")),
     UnsupportedBackend, r"t\.csv, line 4: "),
    (lambda tmp: load_custom(_custom_table(tmp, "0.5,0.5\n1,1\n2,2\n0.4\n")),
     UnsupportedBackend, r"t\.csv, line 5: "),
    (lambda tmp: EUCLIDEAN.series_coeffs(-1), ValueError, "order must be >= 0"),
], ids=["custom-no-type", "custom-repeated-radius", "custom-misspelled-key",
        "custom-line-without-equals", "custom-repeated-key", "custom-zero-denominator",
        "custom-empty-coefficient", "custom-table-cell-not-a-number", "custom-short-table-row",
        "negative-order"])
def test_metric_input_checks(tmp_path, call, exc, match):
    with pytest.raises(exc, match=match):
        call(tmp_path)


def test_short_table_row_is_a_cli_error(tmp_path, capsys):
    # a row without its h was a TypeError traceback out of `g2mono solve`
    path = _custom_table(tmp_path, "0.5,0.5\n1,1\n2,2\n0.4\n")
    assert main(["solve", "--metric", path, "--mass", "1",
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("g2mono: error:") and "t.csv, line 5" in err
    assert "Traceback" not in err
