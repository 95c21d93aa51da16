"""Regenerate the E_I column of solve_energy_parent.json from this tree.

    PYTHONPATH=src python tests/data/make_solve_energy.py

beta, mass and R_end are kept as recorded; the script stops unless this
tree reproduces them within the 1e-14 max(1, |x|) that
tests/test_energy.py allows.  Only E_I is recomputed.  Each record keeps
the E_I of the 4225-point grid rule it replaced, and |E_I - mass/2| for
both, and the script stops if the new residual is the larger one.
"""

import json
from pathlib import Path

from g2mono import energy, metric, shooting

PATH = Path(__file__).with_name("solve_energy_parent.json")
NOTE = (
    "solve_monopole(metric, m) at its default tol and intermediate_energy of "
    "the profile; each record is [metric id, m, beta, mass, R_end, E_I, "
    "E_I_grid, |E_I - mass/2|, |E_I_grid - mass/2|], m = 0.25 * 64^(k/5), "
    "k = 0..5.  beta, mass, R_end and E_I_grid (E_I by the 4225-point grid "
    "rule, since replaced) as computed by commit 62c551a; E_I by the "
    "Gauss-Legendre rule on the shot's steps, written by "
    "tests/data/make_solve_energy.py."
)


def main():
    records = []
    for rec in json.loads(PATH.read_text())["records"]:
        name, m, beta, mass, R_end = rec[:5]
        grid = rec[6] if len(rec) > 6 else rec[5]
        met = metric.get_metric(name)
        prof = shooting.solve_monopole(met, m)
        got = (prof.beta, float(prof.mass), prof.R_end)
        if any(abs(g - x) > 1e-14 * max(1.0, abs(x))
               for g, x in zip(got, (beta, mass, R_end))):
            raise SystemExit(f"{name} m={m}: {got} != {(beta, mass, R_end)}")
        value = float(energy.intermediate_energy(prof, met).value)
        res, res_grid = abs(value - 0.5 * mass), abs(grid - 0.5 * mass)
        if res > res_grid:
            raise SystemExit(f"{name} m={m}: |E_I - m/2| {res} > {res_grid}")
        records.append([name, m, beta, mass, R_end, value, grid, res, res_grid])
    PATH.write_text("{\n \"note\": " + json.dumps(NOTE) + ",\n \"records\": [\n"
                    + ",\n".join("  " + json.dumps(r) for r in records) + "\n ]\n}\n")


if __name__ == "__main__":
    main()
