"""Metric backgrounds against independent quadrature oracles."""

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


def test_s_of_rho_roundtrip():
    ss = np.geomspace(1e-3, 1e3, 40)
    back = s_of_rho(rho_of_s(ss))
    assert np.max(np.abs(back / ss - 1.0)) <= 1e-12


def s_of_rho_loop(rho):
    """One point at a time: the same Newton steps and stop rule as
    s_of_rho, in scalar arithmetic."""
    if rho == 0.0:
        return 0.0
    s = rho if rho < 1.0 else ((rho + 1.198) / 2.0) ** 2
    for _ in range(60):
        s_new = s - (rho_of_s(s) - rho) * (1.0 + s * s) ** 0.25
        if s_new <= 0.0:
            s_new = 0.5 * s
        if abs(s_new - s) <= 1e-15 * max(1.0, s):
            return s_new
        s = s_new
    raise AssertionError(f"no convergence at rho={rho}")


def test_s_of_rho_matches_scalar_loop():
    # numpy's vector pow may round differently from the scalar one, and a
    # different last bit can move the point where Newton stops: allow the
    # stop rule's own tolerance (observed: up to 5 ulp, 6.7e-16 relative)
    rho = np.concatenate([np.geomspace(1e-8, 1e8, 2001), [0.0, 1.0]])
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


def test_bs_green_quadrature_oracle():
    # G(s) = int_s^inf f(t) / (2 h^2(t)) dt
    def integrand(t):
        return (1.0 + t * t) ** -0.25 / (2.0 * t * t * np.sqrt(1.0 + t * t))

    for s in (0.5, 1.0, 3.0, 10.0):
        ref, _ = quad(integrand, s, np.inf, limit=200, epsabs=1e-13,
                      epsrel=1e-12)
        assert abs(bs_green_of_s(s) - ref) <= 1e-11 * ref


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
        EUCLIDEAN.h(0.0)
    with pytest.raises(DomainError):
        BS_S4.green_tail(-1.0)
    with pytest.raises(UnsupportedBackend):
        get_metric("nope")


NAN = float("nan")
NAN_GUARDED = {
    "h": EUCLIDEAN.h,
    "h2": EUCLIDEAN.h2,
    "h2_bs": BS_S4.h2,
    "green_tail": HYPERBOLIC.green_tail,
    "rho_of_s": rho_of_s,
    "s_of_rho": s_of_rho,
}


@pytest.mark.parametrize("name", NAN_GUARDED)
@pytest.mark.parametrize("x", [NAN, np.float64(NAN), np.array([1.0, NAN])],
                         ids=["float", "numpy-scalar", "array"])
def test_nan_radius_rejected(name, x):
    with pytest.raises(DomainError):
        NAN_GUARDED[name](x)


@pytest.mark.parametrize("met", [EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2],
                         ids=lambda m: m.id)
def test_h2_float_path_domain(met):
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            met.h2(bad)


def test_bs_float_path_bit_identical():
    xs = np.concatenate([[0.0, 0.5, 1.0, 3.0], np.geomspace(1e-8, 1e8, 2001)])
    for fn in (bs_f, bs_h2_of_s):
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


def _table_metric(tmp_path, rs):
    table = tmp_path / "table.csv"
    table.write_text("r,h\n" + "".join(f"{r:.17g},{r:.17g}\n" for r in rs))
    cfg = tmp_path / "metric.txt"
    cfg.write_text(f"type=custom\ncoeffs=1,0\ntable={table}\n")
    return str(cfg)


def test_custom_tail_fit_uses_two_rows_when_the_last_decade_has_one(tmp_path):
    cfg = _table_metric(tmp_path, [1.0, 10.0, 100.0, 1001.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")           # no RankWarning from the fit
        met = load_custom(cfg)
    assert met.nonparabolic
    assert abs(met.h2(5000.0) / 2.5e7 - 1.0) <= 1e-9
    assert main(["green", "--metric", cfg, "--charge", "1"]) == 0


def test_custom_tail_fit_keeps_the_last_decade(tmp_path):
    rs = np.geomspace(0.5, 200.0, 257)
    met = load_custom(_table_metric(tmp_path, rs))
    sel = rs >= rs[-1] / 10.0
    p, log_c = np.polyfit(np.log(rs[sel]), np.log(rs[sel]), 1)
    far = np.array([250.0, 1e3, 1e5])
    assert np.array_equal(met.h2(far), (float(np.exp(log_c)) * far ** p) ** 2)
