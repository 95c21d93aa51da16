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
and one family on the tables of CUSTOM, loaded with `load_custom`:
  custom     h2 and green_tail on the table's rows, then per table the
             entries of solve, profile, energy and mass above; a call
             that raises is recorded by its exception's type and message
and one family on the series heads, of the four built-ins and the tables
of CUSTOM:
  series     series_coeffs(n) for n in SERIES_ORDERS as exact strings, then
             per beta in BETAS the coefficients of v_series(beta, ., 12) as
             exact strings and its initial_data floats
  head       per beta in BETAS the floats of v_series(beta, ., 12) and its
             beta_derivative_at(delta) at initial_data's delta: the slope
             seeds of a Newton shot
and one family on the dense `ode.integrate` traces of TRACES:
  integrate  each trace's x, y, nfev and interpolant rows `_F`, then
             `envelope_check(...).lower_linear` of the first
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction

import numpy as np

from g2mono import cli, energy, metric, ode, oracles, shooting
from g2mono.series import initial_data, v_series

BACKENDS = ("euclidean", "hyperbolic", "bs_s4", "bs_cp2")
MASSES = (1e-3, 0.3, 1.7, 16.0, 1500.0)
BETAS = (-1e-3, -0.02, -0.4, -3.0, -30.0, -300.0)
TOLS = (1e-9, 1e-10, 1e-12)
SERIES_ORDERS = range(25)
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


def _head(beta, met):
    """The minus system's start at the series head of beta."""
    return ode.ProfileState(*initial_data(v_series(beta, met.series_coeffs(12), 12)))


# name -> (system, initial state, metric, r_max, keyword arguments) of a
# dense trace: minus shots, the plus flow forward and backward toward the
# origin, su3 and a tail-stopped shot with its variational rows
TRACES = {
    "minus-euclidean": lambda: ("minus", _head(-0.4, metric.EUCLIDEAN), metric.EUCLIDEAN,
                                15.0, {}),
    "minus-hyperbolic": lambda: ("minus", _head(-1.0, metric.HYPERBOLIC), metric.HYPERBOLIC,
                                 15.0, {}),
    "minus-bs_s4": lambda: ("minus", _head(-0.4, metric.BS_S4), metric.BS_S4, 15.0, {}),
    "plus-forward": lambda: ("plus", ode.ProfileState(1.0, 0.4, -0.2), metric.HYPERBOLIC,
                             5.0, {"sigma": 1}),
    "plus-backward": lambda: ("plus", ode.ProfileState(1.0, 0.0, 0.0), metric.EUCLIDEAN,
                              1e-3, {"sigma": -1, "tol": 1e-12}),
    "su3-bs_s4": lambda: ("su3", oracles.su3_instanton(2.0, 1).state(metric.rho_of_s(0.05)),
                          metric.BS_S4, metric.rho_of_s(6.0), {}),
    "variation-bs_s4": lambda: ("minus", _head(-3.0, metric.BS_S4), metric.BS_S4, 1e5,
                                {"tail_stop": True, "variation": (0.0, 1.0)}),
}


def _curved_coeffs(order=12):
    """h^2 / r^2 = (1 + r^2)^(2/5) to order `order`: binom(2/5, k) at r^(2k)."""
    coeffs, c = [], Fraction(1)
    for k in range(order // 2 + 1):
        coeffs += [c, Fraction(0)]
        c *= (Fraction(2, 5) - k) / (k + 1)
    return coeffs[:order + 1]


# name -> (table radii, h(r), series coefficients): the beta-scan table's
# shape with h = r, and h = r (1 + r^2)^(1/5), whose h^2 the table's
# log-log segments do not reproduce
CUSTOM = {
    "custom_flat": (np.geomspace(0.5, 200.0, 257), lambda r: r, [1] + [0] * 12),
    "custom_curved": (np.geomspace(0.2, 60.0, 80), lambda r: r * (1.0 + r * r) ** 0.2,
                      _curved_coeffs()),
}


def _load_custom(name, directory):
    rs, h, coeffs = CUSTOM[name]
    with open(os.path.join(directory, f"{name}.csv"), "w") as fh:
        fh.write("r,h\n" + "".join(f"{r!r},{x!r}\n" for r, x in zip(rs.tolist(), h(rs).tolist())))
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(f"type=custom\ncoeffs={','.join(map(str, coeffs))}\ntable={name}.csv\n")
    return metric.load_custom(path)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _hex_complex(values):
    return _hex(np.real(values)) + _hex(np.imag(values))


def _trace_entries():
    """The integrate family: per trace its grid, states, nfev and rows."""
    out = []
    for name, trace in TRACES.items():
        system, initial, met, r_max, kw = trace()
        res = ode.integrate(system, initial, met, r_max, **kw)
        out.append([name, _hex(res.x), _hex_complex(res.y), res.stats["nfev"],
                    _hex_complex(res._F)])
        if name == "minus-euclidean":
            out.append([name, "envelope", _hex(ode.envelope_check(res).lower_linear)])
    return out


def _raised(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _series_entries(name, met):
    """The series family of one backend: its metric series at every order
    in SERIES_ORDERS, then the v series head and its hand-off per beta."""
    out = [[name, n, _raised(lambda: [str(c) for c in met.series_coeffs(n)])]
           for n in SERIES_ORDERS]
    for beta in BETAS:
        ser = v_series(beta, met.series_coeffs(12), 12)
        out.append([name, beta, [str(c) for c in ser.coeffs], _hex(initial_data(ser))])
    return out


def _head_entries(name, met):
    """The head family of one backend: per beta the head's floats and the
    slope seeds at its hand-off radius, or the error the head raises."""
    def head(beta):
        ser = v_series(beta, met.series_coeffs(12), 12)
        return [_hex(ser.floats), _hex(ser.beta_derivative_at(initial_data(ser)[0]))]
    return [[name, beta, _raised(head, beta)] for beta in BETAS]


def _backend_entries(name, met):
    """The solve, profile, energy and mass entries of one backend."""
    out = {"solve": [], "profile": [], "energy": [], "mass": []}
    for m in MASSES:
        key = [name, m]
        p = _raised(shooting.solve_monopole, met, m)
        if isinstance(p, str):
            out["solve"].append(key + [p])
            continue
        out["solve"].append(key + _hex([p.beta, p.mass, p.delta, p.R_end,
                                        p.a_end, p.G_end, p.tail[2]]))
        out["profile"].append(key + [_hex(x) for x in (p.r, p.a, p.phi, p.v,
                                                       p.h2, p.w)])
        rep = _raised(energy.intermediate_energy, p, met)
        out["energy"].append(key + ([rep] if isinstance(rep, str) else
                                    _hex([rep.value, rep.boundary_limit,
                                          rep.identity_residual, rep.quad_tol])
                                    + [_hex(rep.partial), _hex(rep.boundary)]))
    for beta in BETAS:
        for tol in TOLS:
            mass = _raised(shooting.mass_of_beta, beta, met, tol)
            out["mass"].append([name, beta, tol]
                               + ([mass] if isinstance(mass, str) else _hex([mass])))
    return out


def families():
    out = {"solve": [], "profile": [], "energy": [], "mass": [], "verify": [],
           "custom": [], "integrate": _trace_entries(), "series": [], "head": []}
    for name in BACKENDS:
        met = metric.get_metric(name)
        for family, entries in _backend_entries(name, met).items():
            out[family] += entries
        out["series"] += _series_entries(name, met)
        out["head"] += _head_entries(name, met)
    with tempfile.TemporaryDirectory() as directory:
        for name in CUSTOM:
            met = _load_custom(name, directory)
            rs = CUSTOM[name][0]
            out["custom"].append([name, _hex(met.h2(rs)), _hex(met.green_tail(rs))])
            out["series"] += _series_entries(name, met)
            out["head"] += _head_entries(name, met)
            for family, entries in _backend_entries(name, met).items():
                out["custom"] += [[family] + e for e in entries]
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
