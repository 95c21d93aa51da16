"""CLI surface: file formats, sidecars, exit codes, round trips."""

import csv
import json
import os

import numpy as np
import pytest

from g2mono import metric, ode, shooting
from g2mono.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_writes_csv_and_sidecar(tmp_path, capsys):
    out = str(tmp_path / "bps.csv")
    code, stdout, _ = run(capsys, "solve", "--metric", "euclidean",
                          "--mass", "1", "--tol", "1e-10", "--out", out)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["r", "a", "phi", "v"]
    assert len(rows) > 100
    with open(str(tmp_path / "bps.json")) as fh:
        side = json.load(fh)
    assert side["schema"] == 1
    assert abs(side["mass"] - 1.0) <= 1e-8
    assert abs(side["beta"] + 1.0 / 3.0) <= 1e-8
    assert "stats" in side and "timestamp" in side
    budget = side["error_budget"]
    assert set(budget) == {"series_truncation", "ode_tol", "tail_bound",
                           "mass_residual"}
    assert all(0 <= part <= 1e-8 for part in budget.values())


def test_solve_beta_zero_flat(tmp_path, capsys):
    out = str(tmp_path / "flat.csv")
    code, stdout, _ = run(capsys, "solve", "--metric", "bs_s4",
                          "--beta", "0", "--out", out)
    assert code == 0
    assert json.loads(stdout)["mass"] == 0.0


def test_solve_positive_beta_exit1(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--metric", "bs_cp2",
                       "--beta", "0.1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "no solutions" in err


def test_solve_usage_error_exit2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--metric", "euclidean",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_solve_beta_accepts_fraction(tmp_path, capsys):
    outs = []
    for beta in ("--beta=-1/3", "--beta=-0.3333333333333333"):
        out = str(tmp_path / f"p{len(outs)}.csv")
        code, stdout, _ = run(capsys, "solve", "--metric", "euclidean", beta,
                              "--out", out)
        assert code == 0
        assert json.loads(stdout)["beta"] == -1.0 / 3.0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["solve", "--metric", "euclidean", "--beta=1/0", "--out", "x.csv"],
    ["series", "--metric", "euclidean", "--beta=abc"],
    ["solve", "--metric", "euclidean", "--beta=1e400", "--out", "x.csv"],
])
def test_bad_beta_exit2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--metric", "euclidean", "--mass", "1", "--tol", "1e-3"],
    ["sweep", "--metric", "euclidean", "--mass-min", "1", "--mass-max", "2",
     "--steps", "2", "--tol", "1e-20"],
], ids=["solve", "sweep"])
def test_tol_out_of_range_exit2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "tol must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--metric", "euclidean", "--mass", "inf", "--out", "x.csv"],
    ["solve", "--metric", "euclidean", "--mass", "nan", "--out", "x.csv"],
    ["sweep", "--metric", "euclidean", "--mass-min", "nan", "--mass-max", "1",
     "--steps", "2", "--out", "x.csv"],
    ["sweep", "--metric", "euclidean", "--mass-min", "1", "--mass-max", "inf",
     "--steps", "2", "--out", "x.csv"],
], ids=["solve-inf", "solve-nan", "sweep-min-nan", "sweep-max-inf"])
def test_non_finite_mass_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


_VERIFY = ["verify", "--oracle"]


@pytest.mark.parametrize("argv, flag", [
    (_VERIFY + ["hyperbolic", "--mass", "inf"], "--mass"),
    (_VERIFY + ["bps", "--C", "nan"], "--C"),
    (_VERIFY + ["bps", "--D=-inf"], "--D"),
    (_VERIFY + ["su3_instanton", "--c", "nan"], "--c"),
    (_VERIFY + ["bps", "--r-min", "nan"], "--r-min"),
    (_VERIFY + ["bps", "--r-max", "inf"], "--r-max"),
    (_VERIFY + ["bps", "--n", "0"], "--n"),
    (_VERIFY + ["bps", "--n", "-3"], "--n"),
    (_VERIFY + ["bps", "--n", "2.5"], "--n"),
    (["green", "--metric", "euclidean", "--charge", "1", "--mass", "nan"],
     "--mass"),
    (["green", "--metric", "euclidean", "--charge", "1", "--r", "inf"], "--r"),
    (["energy", "--profile", "x.csv", "--mass", "nan"], "--mass"),
    (_VERIFY + ["bps", "--r-min", "0"], "--r-min"),
    (_VERIFY + ["bps", "--r-max", "-1"], "--r-max"),
    (["green", "--metric", "euclidean", "--charge", "1", "--r", "0"], "--r"),
    (["sweep", "--metric", "euclidean", "--mass-min", "0", "--mass-max", "1",
      "--steps", "2", "--out", "x.csv"], "--mass-min"),
    (["sweep", "--metric", "euclidean", "--mass-min", "1", "--mass-max", "2",
      "--steps", "0", "--out", "x.csv"], "--steps"),
    (["series", "--metric", "euclidean", "--order", "-1"], "--order"),
    (["series", "--metric", "euclidean", "--order", "0"], "--order"),
    (["series", "--metric", "euclidean", "--order", "1"], "--order"),
], ids=["verify-mass-inf", "verify-C-nan", "verify-D-inf", "verify-c-nan",
        "verify-r-min-nan", "verify-r-max-inf", "verify-n-0", "verify-n-neg",
        "verify-n-float", "green-mass-nan", "green-r-inf", "energy-mass-nan",
        "verify-r-min-0", "verify-r-max-neg", "green-r-0", "sweep-mass-min-0",
        "sweep-steps-0", "series-order-neg", "series-order-0", "series-order-1"])
def test_bad_numeric_flag_exit2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_energy_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "bps.csv")
    run(capsys, "solve", "--metric", "euclidean", "--mass", "1",
        "--out", out)
    code, stdout, _ = run(capsys, "energy", "--profile", out)
    assert code == 0
    rep = json.loads(stdout)
    assert abs(rep["E_I"] - 0.5) <= 1e-6
    assert rep["metric"] == "euclidean"


def test_sweep_table_and_plot(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    svg = str(tmp_path / "sweep.svg")
    code, _, _ = run(capsys, "sweep", "--metric", "euclidean",
                     "--mass-min", "0.5", "--mass-max", "2",
                     "--steps", "4", "--out", out, "--plot", svg)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mass"] for r in rows] == ["0.5", "1", "1.5", "2"]
    betas = [float(r["beta"]) for r in rows]
    masses = [float(r["mass"]) for r in rows]
    for b, m in zip(betas, masses):
        assert abs(b + m * m / 3.0) <= 1e-6     # BPS relation
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
    assert os.path.exists(svg)
    assert open(svg).read().startswith("<svg")
    with open(str(tmp_path / "sweep.json")) as fh:
        side = json.load(fh)
    assert side["threads"] == 1
    assert [row["mass"] for row in side["rows"]] == masses
    assert [row["beta"] for row in side["rows"]] == betas
    for row in side["rows"]:
        assert row["stats"]["nfev"] > 0
        budget = row["error_budget"]
        assert set(budget) == {"series_truncation", "ode_tol", "tail_bound",
                               "mass_residual"}
        assert all(0 <= part <= 1e-8 for part in budget.values())


@pytest.mark.parametrize("met", ["bs_s4", "hyperbolic"])
def test_sweep_warm_start_matches_cold_roots(tmp_path, capsys, monkeypatch, met):
    starts = []
    solve = shooting.solve_monopole

    def spy(metric_, mass, tol=1e-10, beta0=None):
        starts.append(beta0)
        return solve(metric_, mass, tol=tol, beta0=beta0)

    monkeypatch.setattr(shooting, "solve_monopole", spy)
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(capsys, "sweep", "--metric", met, "--mass-min", "0.8",
                     "--mass-max", "1.2", "--steps", "5", "--out", out)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    # every mass after the first starts from the previous root, scaled as
    # beta ~ m^2
    masses = [float(row["mass"]) for row in rows]
    betas = [float(row["beta"]) for row in rows]
    assert starts == [None] + [pytest.approx(b * (m1 / m0) ** 2, rel=1e-15)
                               for b, m0, m1 in zip(betas, masses, masses[1:])]
    for row in rows:
        beta = float(row["beta"])
        cold = solve(metric.get_metric(met), float(row["mass"])).beta
        assert abs(beta - cold) <= 1e-9 * abs(cold), (row["mass"], beta, cold)


def test_sweep_empty_range_exit2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--metric", "euclidean", "--mass-min", "2",
              "--mass-max", "1", "--steps", "3",
              "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_verify_su3(capsys):
    code, stdout, _ = run(capsys, "verify", "--oracle", "su3_instanton",
                          "--c", "2", "--r-min", "0.01", "--r-max", "50")
    assert code == 0
    assert json.loads(stdout)["sup_residual"] <= 1e-10


def test_verify_su3_rejects_non_bs_metric(capsys):
    code, stdout, err = run(capsys, "verify", "--oracle", "su3_instanton",
                            "--metric", "euclidean")
    assert code != 0
    assert stdout == ""
    assert "Bryant-Salamon" in err


def test_verify_bps(capsys):
    code, stdout, _ = run(capsys, "verify", "--oracle", "bps_mass",
                          "--mass", "1")
    assert code == 0
    assert json.loads(stdout)["sup_residual"] <= 1e-12


@pytest.mark.parametrize("oracle, met, system", [
    ("bps", "euclidean", "minus"),
    ("bps_mass", "euclidean", "minus"),
    ("hyperbolic", "hyperbolic", "minus"),
    ("dirac", "euclidean", "minus"),
    ("flat", "euclidean", "minus"),
    ("bs_instanton", "bs_s4", "minus"),
    ("su3_instanton", "bs_s4", "su3"),
])
def test_verify_default_flags(oracle, met, system, capsys):
    code, stdout, _ = run(capsys, "verify", "--oracle", oracle)
    assert code == 0
    rep = json.loads(stdout)
    assert (rep["oracle"], rep["metric"], rep["system"]) == (oracle, met, system)
    assert rep["sup_residual"] <= 1e-10


def test_stiffness_error_exit1(tmp_path, capsys, monkeypatch):
    def stiff(*args, **kwargs):
        raise ode.StiffnessError("required step size is less than spacing")

    monkeypatch.setattr(shooting, "solve_monopole", stiff)
    code, stdout, err = run(capsys, "solve", "--metric", "euclidean",
                            "--mass", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert stdout == ""
    assert "g2mono: error: required step size" in err


def test_green_command(capsys):
    code, stdout, _ = run(capsys, "green", "--metric", "bs_s4",
                          "--charge", "1", "--mass", "1", "--r", "50")
    assert code == 0
    rep = json.loads(stdout)
    assert abs(rep["fit"]["exponent"] + 5.0) <= 0.05
    assert abs(rep["phi_D"] + 1.0 + rep["G"]) <= 1e-12


def test_series_command(capsys):
    code, stdout, _ = run(capsys, "series", "--metric", "euclidean",
                          "--beta=-1/3", "--order", "6")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["coeffs_exact"][2] == "-1/3"
    assert rep["coeffs_exact"][4] == "1/90"


def test_deterministic_outputs(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(capsys, "solve", "--metric", "hyperbolic", "--mass", "1", "--out", a)
    run(capsys, "solve", "--metric", "hyperbolic", "--mass", "1", "--out", b)
    assert open(a).read() == open(b).read()
