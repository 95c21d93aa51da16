"""Print one sha256 per output family of g2mono over a fixed grid.

    PYTHONPATH=src python tests/data/output_digest.py [--dump values.json]

Run it on two trees to back a bit-identity claim: a family whose digest
is equal on both produced the same floats, to the bit.  `--dump` also
writes the hashed values (floats as `float.hex`), so a family that moved
can be compared value by value.

Families, on the four built-in backgrounds:
  solve      solve_monopole scalars (beta, mass, delta, R_end, a_end,
             G_end, the tail bound) at m in MASSES, default tol
  profile    the same solves' arrays (r, a, phi, v, h2, w)
  energy     intermediate_energy of those profiles
  mass       mass_of_beta over BETAS x TOLS
  verify     the JSON line of each `g2mono verify` run in VERIFY
"""

import argparse
import contextlib
import hashlib
import io
import json

import numpy as np

from g2mono import cli, energy, metric, shooting

BACKENDS = ("euclidean", "hyperbolic", "bs_s4", "bs_cp2")
MASSES = (1e-3, 0.3, 1.7, 16.0, 1500.0)
BETAS = (-1e-3, -0.02, -0.4, -3.0, -30.0, -300.0)
TOLS = (1e-9, 1e-10, 1e-12)
VERIFY = (
    ["--oracle", "bps", "--C", "1", "--D", "0"],
    ["--oracle", "bps", "--C", "2", "--D", "0.5"],
    ["--oracle", "bps_mass", "--mass", "1.7"],
    ["--oracle", "hyperbolic", "--mass", "1.7"],
    ["--oracle", "dirac", "--mass", "0.3"],
    ["--oracle", "flat"],
    ["--oracle", "flat", "--metric", "bs_s4"],
    ["--oracle", "bs_instanton", "--sign", "1"],
    ["--oracle", "bs_instanton", "--sign", "-1", "--metric", "bs_cp2"],
    ["--oracle", "su3_instanton", "--c", "1", "--branch", "1"],
    ["--oracle", "su3_instanton", "--c", "0.5", "--branch", "-1"],
)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def families():
    out = {"solve": [], "profile": [], "energy": [], "mass": [], "verify": []}
    for name in BACKENDS:
        met = metric.get_metric(name)
        for m in MASSES:
            p = shooting.solve_monopole(met, m)
            key = [name, m]
            out["solve"].append(key + _hex([p.beta, p.mass, p.delta, p.R_end,
                                            p.a_end, p.G_end, p.tail[2]]))
            out["profile"].append(key + [_hex(x) for x in (p.r, p.a, p.phi, p.v,
                                                           p.h2, p.w)])
            rep = energy.intermediate_energy(p, met)
            out["energy"].append(key + _hex([rep.value, rep.boundary_limit,
                                             rep.identity_residual, rep.quad_tol])
                                 + [_hex(rep.partial), _hex(rep.boundary)])
        for beta in BETAS:
            for tol in TOLS:
                out["mass"].append([name, beta, tol]
                                   + _hex([shooting.mass_of_beta(beta, met, tol)]))
    for argv in VERIFY:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", *argv])
        out["verify"].append(buf.getvalue())
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", help="also write the hashed values to this JSON file")
    args = parser.parse_args()
    out = families()
    for name, values in out.items():
        text = json.dumps(values, sort_keys=True)
        print(f"{name:8s} {hashlib.sha256(text.encode()).hexdigest()}")
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    main()
