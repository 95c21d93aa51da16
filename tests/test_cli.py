"""CLI surface: file formats, sidecars, exit codes, round trips."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import g2mono
from g2mono import energy, metric, ode, shooting
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
    assert list(rows[0].keys()) == ["r", "a", "phi", "v", "h2", "w"]
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


def test_solve_huge_beta_names_it(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--metric", "bs_s4", "--beta=-1e60",
                       "--out", str(tmp_path / "p.csv"))
    assert code == 1
    assert err == ("g2mono: error: beta = -1e+60: the series head's floats "
                   "are not finite (|beta| is too large)\n")


def test_series_coefficient_past_float_range_exit1(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("type=custom\ncoeffs=1,0,1e400\n")
    code, _, err = run(capsys, "series", "--metric", str(path))
    assert code == 1
    assert err == (f"g2mono: error: custom metric file {path}: a coefficient of "
                   "'coeffs=1,0,1e400' is past the float range\n")


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
        outs.append(Path(out).read_text())
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
    (["solve", "--metric", "euclidean", "--mass", "0", "--out", "x.csv"], "--mass"),
    (["solve", "--metric", "euclidean", "--mass=-1", "--out", "x.csv"], "--mass"),
    (["energy", "--profile", "x.csv", "--mass=-1"], "--mass"),
    (["green", "--metric", "euclidean", "--charge", "1", "--mass=-1"], "--mass"),
], ids=["verify-mass-inf", "verify-C-nan", "verify-D-inf", "verify-c-nan",
        "verify-r-min-nan", "verify-r-max-inf", "verify-n-0", "verify-n-neg",
        "verify-n-float", "green-mass-nan", "green-r-inf", "energy-mass-nan",
        "verify-r-min-0", "verify-r-max-neg", "green-r-0", "sweep-mass-min-0",
        "sweep-steps-0", "series-order-neg", "series-order-0", "series-order-1",
        "solve-mass-0", "solve-mass-neg", "energy-mass-neg", "green-mass-neg"])
def test_bad_numeric_flag_exit2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_energy_roundtrip(tmp_path, capsys):
    # the solve CSV holds the energy grid, so the CLI reproduces E_I exactly
    for met, m in ((metric.EUCLIDEAN, 1.0), (metric.HYPERBOLIC, 6.0),
                   (metric.BS_S4, 1.7)):
        out = str(tmp_path / f"{met.id}.csv")
        run(capsys, "solve", "--metric", met.id, "--mass", str(m),
            "--out", out)
        code, stdout, _ = run(capsys, "energy", "--profile", out)
        assert code == 0
        rep = json.loads(stdout)
        assert abs(rep["E_I"] - 0.5 * m) <= 1e-6
        assert rep["metric"] == met.id
        prof = shooting.solve_monopole(met, m)
        assert rep["E_I"] == energy.intermediate_energy(prof, met).value


def test_energy_without_sidecar(tmp_path, capsys):
    # no sidecar: --metric is required, and the mass is read off the tail
    out = str(tmp_path / "p.csv")
    _, stdout, _ = run(capsys, "solve", "--metric", "bs_s4", "--mass", "1.7",
                       "--out", out)
    solved = json.loads(stdout)["mass"]
    os.remove(out[:-4] + ".json")
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--profile", out])
    assert exc.value.code == 2
    assert "--metric required" in capsys.readouterr().err
    code, stdout, _ = run(capsys, "energy", "--profile", out,
                          "--metric", "bs_s4")
    assert code == 0
    assert abs(json.loads(stdout)["mass"] - solved) <= 1e-9


def test_energy_without_sidecar_refuses_a_tail_that_has_not_decayed(tmp_path, capsys):
    # the flat profile (beta = 0) ends with a = 1, where 2 (G(R) - phi(R))
    # is not its mass: the tail bound 2 a(R)^2 G(R) is 7.3e-5 there
    out = str(tmp_path / "flat.csv")
    assert run(capsys, "solve", "--metric", "bs_s4", "--beta", "0", "--out", out)[0] == 0
    os.remove(out[:-4] + ".json")
    code, stdout, err = run(capsys, "energy", "--profile", out, "--metric", "bs_s4")
    assert code == 1 and stdout == ""
    assert "2 a(R)^2 G(R) = 7.27e-05 exceeds 1e-6" in err and "give --mass" in err
    code, stdout, _ = run(capsys, "energy", "--profile", out, "--metric", "bs_s4",
                          "--mass", "0")
    assert code == 0 and json.loads(stdout)["E_I"] == 0.0


def test_energy_on_a_custom_metric_profile(tmp_path, capsys, monkeypatch):
    # the sidecar's metric id is "custom"; energy reloads the file that
    # the solve was given, whose table path is relative to that file
    rows = "".join(f"{r!r},{r!r}\n" for r in np.geomspace(0.5, 200.0, 40).tolist())
    (tmp_path / "table.csv").write_text("r,h\n" + rows)
    cfg = tmp_path / "flat.txt"
    cfg.write_text("type=custom\ncoeffs=1" + ",0" * 12 + "\ntable=table.csv\n")
    monkeypatch.chdir(tmp_path.parent)
    out = str(tmp_path / "p.csv")
    code, _, _ = run(capsys, "solve", "--metric", str(cfg), "--mass", "1",
                     "--out", out)
    assert code == 0
    assert json.loads((tmp_path / "p.json").read_text())["metric"] == "custom"
    code, stdout, err = run(capsys, "energy", "--profile", out)
    assert code == 0, err
    rep = json.loads(stdout)
    assert rep["metric"] == "custom" and abs(rep["E_I"] - 0.5) <= 1e-6
    prof = shooting.solve_monopole(metric.load_custom(str(cfg)), 1.0)
    assert rep["E_I"] == energy.intermediate_energy(
        prof, metric.load_custom(str(cfg))).value
    code, stdout, _ = run(capsys, "energy", "--profile", out,
                          "--metric", "euclidean")        # still overrides
    assert code == 0 and json.loads(stdout)["metric"] == "euclidean"


def test_energy_reads_a_relative_metric_file_from_another_directory(
        tmp_path, capsys, monkeypatch):
    # solve and sweep record a metric file by its absolute path, a
    # built-in metric by its name
    (tmp_path / "cm").mkdir()
    (tmp_path / "elsewhere").mkdir()
    rows = "".join(f"{r!r},{r!r}\n" for r in np.geomspace(0.5, 200.0, 40).tolist())
    (tmp_path / "cm" / "table.csv").write_text("r,h\n" + rows)
    (tmp_path / "cm" / "m.txt").write_text(
        "type=custom\ncoeffs=1" + ",0" * 12 + "\ntable=table.csv\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "solve", "--metric", "cm/m.txt", "--mass", "1",
               "--out", "p.csv")[0] == 0
    assert run(capsys, "sweep", "--metric", "cm/m.txt", "--mass-min", "1",
               "--mass-max", "1", "--steps", "1", "--out", "s.csv")[0] == 0
    assert run(capsys, "solve", "--metric", "euclidean", "--mass", "1",
               "--out", "e.csv")[0] == 0
    for side in ("p.json", "s.json"):
        recorded = json.loads((tmp_path / side).read_text())["parameters"]["metric"]
        assert os.path.isabs(recorded)
        assert os.path.samefile(recorded, tmp_path / "cm" / "m.txt")
    assert json.loads((tmp_path / "e.json").read_text())["parameters"]["metric"] == "euclidean"
    monkeypatch.chdir(tmp_path / "elsewhere")
    code, stdout, err = run(capsys, "energy", "--profile", str(tmp_path / "p.csv"))
    assert code == 0, err
    rep = json.loads(stdout)
    assert rep["metric"] == "custom" and abs(rep["E_I"] - 0.5) <= 1e-6


@pytest.mark.parametrize("text,message", [
    ("r,a,phi,v,h2,w\n0,1,0,0,0,0\n", "at least 2 samples, not 1"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,nan,-0.1,1,0.5\n2,0.1,-0.2,4,0\n",
     "a and phi must be finite"),
    ("r,a,phi,v,h2,w\n", "at least 2 samples, not 0"),
    ("r,a,v,h2,w\n0,1,0,0,0\n1,0.5,0,1,0\n", "lacks the column\\(s\\) phi$"),
    ("r,a,phi,v,h2\n0,1,0,0,0\n1,0.5,-0.1,0,1\n", "lacks the column\\(s\\) w$"),
    ("r,a,phi,v,w\n0,1,0,0,0\n1,0.5,-0.1,0,0\n", "lacks the column\\(s\\) h2$"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,0.5\n", "could not convert"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,0.5,-0.1,1,nan\n2,0.1,-0.2,4,0\n",
     "weights w must be finite and >= 0"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,0.5,-0.1,1,-0.5\n2,0.1,-0.2,4,0\n",
     "weights w must be finite and >= 0"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,0.5,-0.1,1,0.5\n2,0.1,-0.2,4,0.5\n",
     "weights w must be 0 on the first and last samples"),
    ("r,a,phi,h2,w\n0,1,0,0,0\n1,0.5,-0.1,1.0000000001,0.5\n2,0.1,-0.2,4,0\n",
     "column h2 is not the h\\^2 of metric 'euclidean'"),
], ids=["one-row", "nan-a", "header-only", "no-phi", "no-w", "no-h2", "short-row",
        "nan-w", "negative-w", "end-w", "wrong-h2"])
@pytest.mark.parametrize("mass", [["--mass", "1"], []], ids=["mass", "no-mass"])
def test_energy_rejects_malformed_csv(tmp_path, capsys, text, message, mass):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, stdout, err = run(capsys, "energy", "--profile", str(path),
                            "--metric", "euclidean", *mass)
    assert code == 1 and stdout == ""
    assert re.search(message, err), err


def test_energy_rejects_an_h2_column_of_another_metric(tmp_path, capsys):
    # the h2 column is checked against the metric the CSV is read with:
    # a bs_s4 profile read as euclidean would integrate the wrong energy
    out = str(tmp_path / "p.csv")
    assert run(capsys, "solve", "--metric", "bs_s4", "--mass", "1.7",
               "--out", out)[0] == 0
    code, stdout, err = run(capsys, "energy", "--profile", out,
                            "--metric", "euclidean")
    assert code == 1 and stdout == ""
    assert "column h2 is not the h^2 of metric 'euclidean'" in err
    assert run(capsys, "energy", "--profile", out, "--metric", "bs_cp2")[0] == 0


def test_energy_at_mass_0_integrates_a_profile_that_is_not_flat(tmp_path, capsys):
    # --mass 0 states a wrong mass for the m = 1.7 profile: E_I stays 0.85
    # and the identity |E_I - mass/2| fails; the flat profile is still 0
    out, flat = str(tmp_path / "p.csv"), str(tmp_path / "flat.csv")
    assert run(capsys, "solve", "--metric", "euclidean", "--mass", "1.7",
               "--out", out)[0] == 0
    assert run(capsys, "solve", "--metric", "euclidean", "--beta", "0",
               "--out", flat)[0] == 0
    code, stdout, _ = run(capsys, "energy", "--profile", out, "--mass", "0")
    rep = json.loads(stdout)
    assert code == 0 and rep["mass"] == 0.0
    assert abs(rep["E_I"] - 0.85) <= 1e-6 and rep["identity_residual"] == rep["E_I"]
    code, stdout, _ = run(capsys, "energy", "--profile", flat, "--mass", "0")
    rep = json.loads(stdout)
    assert code == 0 and rep["E_I"] == 0.0 and rep["identity_residual"] == 0.0


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
    assert Path(svg).read_text().startswith("<svg")
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
def test_sweep_rows_are_cold_solves(tmp_path, capsys, met):
    # every row is solve_monopole(met, m) itself, bit for bit: no row
    # depends on the one before
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(capsys, "sweep", "--metric", met, "--mass-min", "0.8",
                     "--mass-max", "1.2", "--steps", "5", "--out", out)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        cold = shooting.solve_monopole(metric.get_metric(met), float(row["mass"]))
        assert float(row["beta"]) == cold.beta, row["mass"]


def test_sweep_empty_range_exit2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--metric", "euclidean", "--mass-min", "2",
              "--mass-max", "1", "--steps", "3",
              "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_sweep_one_step_needs_one_mass(tmp_path, capsys):
    # one step cannot cover mass-min < mass-max: mass-max would be dropped
    out = str(tmp_path / "s.csv")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--metric", "euclidean", "--mass-min", "1",
              "--mass-max", "2", "--steps", "1", "--out", out])
    assert exc.value.code == 2
    assert "--steps 1 needs mass-min == mass-max" in capsys.readouterr().err
    code, _, _ = run(capsys, "sweep", "--metric", "euclidean", "--mass-min",
                     "2", "--mass-max", "2", "--steps", "1", "--out", out)
    assert code == 0
    with open(out) as fh:
        assert [row["mass"] for row in csv.DictReader(fh)] == ["2"]


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


@pytest.mark.parametrize("r_min, r_max", [("5", "1"), ("2", "2")])
def test_verify_needs_r_min_below_r_max(r_min, r_max, capsys):
    # an empty or reversed window used to exit 0 with "range": [5.0, 1.0]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--oracle", "bps", "--C", "1", "--r-min", r_min, "--r-max", r_max])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need r-min < r-max" in captured.err


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
    assert sorted(rep["fit"]) == ["amplitude", "exponent", "max_rel_residual", "offset"]
    assert abs(rep["fit"]["exponent"] + 5.0) <= 1e-6
    assert abs(rep["phi_D"] + 1.0 + rep["G"]) <= 1e-12


@pytest.mark.parametrize("mass", ["0", "1"])
def test_green_on_an_exponential_tail_exit1(capsys, mass):
    # hyperbolic's G decays like exp(-2r): there is no power law to fit
    code, stdout, err = run(capsys, "green", "--metric", "hyperbolic",
                            "--charge", "1", "--mass", mass)
    assert code == 1 and stdout == ""
    assert err.startswith("g2mono: error:") and "not a power law" in err


def test_series_command(capsys):
    code, stdout, _ = run(capsys, "series", "--metric", "euclidean",
                          "--beta=-1/3", "--order", "6")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["coeffs_exact"][2] == "-1/3"
    assert rep["coeffs_exact"][4] == "1/90"


@pytest.mark.parametrize("command", ["solve", "series"])
def test_overflow_exit1(tmp_path, capsys, command):
    # the series coefficients at beta = -1e200 overflow a float
    argv = [command, "--metric", "euclidean", "--beta=-1e200"]
    if command == "solve":
        argv += ["--out", str(tmp_path / "x.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("g2mono: error: beta = -1e+200: the series head") \
        and "Traceback" not in err


def test_deterministic_outputs(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(capsys, "solve", "--metric", "hyperbolic", "--mass", "1", "--out", a)
    run(capsys, "solve", "--metric", "hyperbolic", "--mass", "1", "--out", b)
    assert Path(a).read_text() == Path(b).read_text()


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")         # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == g2mono.__version__


_NO_SCIPY_SCRIPT = """
import os, sys
import numpy as np
from g2mono import cli, energy, metric, ode, shooting
assert "numpy.polynomial" not in sys.modules
assert not ode._KERNELS, list(ode._KERNELS)           # generated on first use
shooting.mass_of_beta(-0.5, metric.EUCLIDEAN)
assert list(ode._KERNELS) == [(ode._function_source, ode._MINUS, frozenset()), (
    ode._loop_source, ode._MINUS, ode._TAIL_STOP, metric.EUCLIDEAN.chart.stage, 2, 2, False,
    frozenset())], list(ode._KERNELS)
for name in ("euclidean", "hyperbolic", "bs_s4", "bs_cp2"):
    met = metric.get_metric(name)
    energy.intermediate_energy(shooting.solve_monopole(met, 1.0), met)
out = sys.argv[1]
rs = np.geomspace(0.5, 100.0, 40)
with open(os.path.join(out, "t.csv"), "w") as fh:
    fh.write("r,h\\n" + "".join(f"{r!r},{r!r}\\n" for r in rs.tolist()))
with open(os.path.join(out, "m.txt"), "w") as fh:
    fh.write("type=custom\\ncoeffs=1" + ",0" * 12 + "\\ntable=t.csv\\n")
custom = metric.load_custom(os.path.join(out, "m.txt"))
shooting.mass_of_beta(-0.5, custom)
custom.green_tail(np.array([0.1, 3.0, 300.0]))
assert cli.main(["solve", "--metric", "bs_s4", "--mass", "1",
                 "--out", os.path.join(out, "p.csv")]) == 0
assert cli.main(["green", "--metric", "bs_s4", "--charge", "1"]) == 0
assert "numpy.polynomial" not in sys.modules
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_import_and_solves_do_not_load_scipy(tmp_path):
    # scipy is needed only by the tests, numpy.polynomial by none (the
    # `green` fit's np.polyfit does not load it), and the import
    # generates no DOP853 loop
    src = str(Path(g2mono.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
