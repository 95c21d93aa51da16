"""Regenerate solve_energy_parent.json from this tree.

    PYTHONPATH=src python tests/data/make_solve_energy.py

Each record keeps its E_I_grid, the E_I of the 4225-point grid rule
computed by commit 62c551a, and that rule's residual |E_I_grid - mass/2|
at the mass of that commit.  beta, mass, R_end and E_I are taken again
from this tree, since a change of the Newton path moves the root within
its tolerance; the script stops unless each new mass is within 1e-10 of
the recorded one, within 1e-9 of m and no further from m than the
recorded one plus 1e-11, |E_I - mass/2| is at most the grid rule's
recorded residual, and the exact map is within 1e-9 of m: on euclidean
m(beta) = sqrt(-3 beta), with beta also within 1e-9 relative of -m^2/3,
and on hyperbolic m(beta) = -1 + sqrt(1 - 3 beta)."""

import json
import math
from pathlib import Path

from g2mono import energy, metric, shooting

PATH = Path(__file__).with_name("solve_energy_parent.json")
NOTE = (
    "solve_monopole(metric, m) at its default tol and intermediate_energy of "
    "the profile; each record is [metric id, m, beta, mass, R_end, E_I, "
    "E_I_grid, |E_I - mass/2|, |E_I_grid - mass/2|], m = 0.25 * 64^(k/5), "
    "k = 0..5.  E_I_grid (E_I by the 4225-point grid rule, since replaced) "
    "and |E_I_grid - mass/2| as computed by commit 62c551a, the latter at "
    "that commit's mass.  E_I by the Gauss-Legendre rule on the shot's "
    "steps, and beta, mass and R_end from the Newton path of 11.0.2, "
    "written by tests/data/make_solve_energy.py."
)
_EXACT = {"euclidean": lambda beta: math.sqrt(-3.0 * beta),
          "hyperbolic": lambda beta: -1.0 + math.sqrt(1.0 - 3.0 * beta)}


def main():
    records = []
    for rec in json.loads(PATH.read_text())["records"]:
        name, m, beta, mass, R_end, value, grid, _, res_grid = rec
        met = metric.get_metric(name)
        prof = shooting.solve_monopole(met, m)
        new = (prof.beta, float(prof.mass), prof.R_end,
               float(energy.intermediate_energy(prof, met).value))
        if not (abs(new[1] - mass) <= 1e-10 and abs(new[1] - m) <= 1e-9
                and abs(new[1] - m) <= abs(mass - m) + 1e-11):
            raise SystemExit(f"{name} m={m}: mass {new[1]!r}, recorded {mass!r}")
        if name in _EXACT and abs(_EXACT[name](new[0]) - m) > 1e-9:
            raise SystemExit(f"{name} m={m}: beta {new[0]!r} is off the exact map")
        if name == "euclidean" and abs(new[0] + m * m / 3.0) > 1e-9 * m * m / 3.0:
            raise SystemExit(f"{name} m={m}: beta {new[0]!r} is not -m^2/3")
        beta, mass, R_end, value = new
        res = abs(value - 0.5 * mass)
        if res > res_grid:
            raise SystemExit(f"{name} m={m}: |E_I - m/2| {res} > {res_grid}")
        records.append([name, m, beta, mass, R_end, value, grid, res, res_grid])
    PATH.write_text("{\n \"note\": " + json.dumps(NOTE) + ",\n \"records\": [\n"
                    + ",\n".join("  " + json.dumps(r) for r in records) + "\n ]\n}\n")


if __name__ == "__main__":
    main()
