"""Command-line surface: solve / sweep / verify / green / energy / series.

File conventions: profile CSV with fixed header ``r,a,phi,v,h2,w`` at
17 significant digits, the samples of the profile's energy quadrature
rule with h^2 and the weights, so that ``energy`` repeats the solve's
sum exactly; every data file gets a JSON sidecar run record
(``schema: 1``) so that runs are reproducible and self-describing.
Figures are plain-path SVG, no plotting dependency.

Exit codes: 0 success, 1 solver/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import types
from fractions import Fraction

import numpy as np

from . import __version__, energy, green, metric, ode, oracles, series, shooting

_FMT = "%.17g"
_SVG_WIDTH, _SVG_HEIGHT = 640, 420                    # size of `--plot` figures


def _is_metric_file(name: str) -> bool:
    return name.endswith(".txt") or name.endswith(".cfg") or os.path.sep in name


def _metric_arg(name: str):
    if _is_metric_file(name):
        return metric.load_custom(name)
    return metric.get_metric(name)


def _metric_param(name: str) -> str:
    """--metric as a sidecar records it: a metric file by its absolute
    path, so that `energy --profile` finds it from any directory."""
    return os.path.abspath(name) if _is_metric_file(name) else name


def _arg(convert, ok=lambda value: True, what=""):
    """An argparse type: `convert` the flag's text, then require
    `ok(value)`.  Either failure is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ArithmeticError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value
    return parse


_FINITE = _arg(float, math.isfinite, "finite")
_POSITIVE = _arg(float, lambda v: 0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = _arg(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_COUNT = _arg(int, lambda v: v >= 1, "at least 1")
_ORDER = _arg(int, lambda v: v >= 2, "at least 2")      # v_series needs order >= 2
_FRACTION = _arg(Fraction)
_REAL = _arg(lambda text: float(Fraction(text)))       # e.g. -1/3
_TOL = _arg(lambda text: ode.check_tol(float(text)))


def _sidecar_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".json"


def _write_sidecar(out: str, command: str, parameters: dict, payload: dict):
    record = {
        "schema": 1,
        "command": command,
        "parameters": parameters,
        "outputs": [out],
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    record.update(payload)
    with open(_sidecar_path(out), "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")


_CSV_COLUMNS = ("r", "a", "phi", "v", "h2", "w")


def _write_profile_csv(path: str, prof):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for row in zip(*(getattr(prof, k) for k in _CSV_COLUMNS)):
            w.writerow([_FMT % x for x in row])


def _read_profile_csv(path: str):
    """(r, a, phi, h2, w) from a profile CSV, checked as a quadrature rule."""
    names = ("r", "a", "phi", "h2", "w")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [k for k in names if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
        rows = [[row[k] for k in names] for row in reader]
    return energy.profile_samples(*np.array(rows, dtype=float).reshape(-1, 5).T)


def _check_h2(path: str, r, h2, met):
    """The CSV's h2 column must be the metric's h^2 on its radii, to 1e-12
    relative (0 at r = 0): a profile solved on another metric fails."""
    pos = r > 0
    ref = met.h2(r[pos])
    if not (np.all(h2[~pos] == 0.0)
            and np.all(np.abs(h2[pos] - ref) <= 1e-12 * np.abs(ref))):
        raise ValueError(f"{path}: column h2 is not the h^2 of metric {met.id!r}")


def _svg_plot(path: str, curves, title: str):
    """Minimal SVG line plot: list of (xs, ys, label)."""
    pad, width, height = 50, _SVG_WIDTH, _SVG_HEIGHT
    all_x = np.concatenate([np.asarray(c[0], float) for c in curves])
    all_y = np.concatenate([np.asarray(c[1], float) for c in curves])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:.4g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad-4}" y="{pad}" text-anchor="end" font-size="10">{y1:.4g}</text>',
    ]
    for i, (xs, ys, label) in enumerate(curves):
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys))
        col = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width-pad}" y="{pad + 14*i}" text-anchor="end" '
                     f'font-size="11" fill="{col}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_record(prof, mass=None) -> dict:
    """The integrator stats and the a-posteriori parts of the mass
    error of one profile; none needs an extra shot.  `mass` is the
    requested mass, if any."""
    budget = {"series_truncation": prof.series.truncation_bound(prof.delta),
              "ode_tol": prof.tol, "tail_bound": prof.tail[2]}
    if mass is not None:
        budget["mass_residual"] = abs(prof.mass - mass)
    return {"stats": prof.result.stats if prof.result is not None else {},
            "error_budget": budget}


def cmd_solve(args, parser) -> int:
    met = _metric_arg(args.metric)
    if args.mass is not None:
        prof = shooting.solve_monopole(met, args.mass, tol=args.tol)
    else:
        prof = shooting.profile_of_beta(args.beta, met, tol=args.tol)
    _write_profile_csv(args.out, prof)
    _write_sidecar(args.out, "solve",
                   {"metric": _metric_param(args.metric), "mass": args.mass,
                    "beta": args.beta, "tol": args.tol},
                   {"metric": met.id, "beta": prof.beta, "mass": prof.mass,
                    "tol": prof.tol,
                    "tail": {"R_end": prof.R_end, "a_end": prof.a_end,
                             "bound": prof.tail[2]},
                    **_run_record(prof, args.mass)})
    print(json.dumps({"out": args.out, "mass": prof.mass, "beta": prof.beta}))
    return 0


def cmd_sweep(args, parser) -> int:
    if args.mass_max < args.mass_min:
        parser.error("need mass-min <= mass-max")
    if args.steps == 1 and args.mass_min != args.mass_max:
        parser.error("--steps 1 needs mass-min == mass-max")
    met = _metric_arg(args.metric)
    masses = np.linspace(args.mass_min, args.mass_max, args.steps)
    # a solved bs_s4 profile holds ~0.06-0.07 MB (tracemalloc, m = 0.5-4):
    # keep only the ones --plot draws
    plotted = range(0, args.steps, max(1, args.steps // 4)) if args.plot else ()
    rows, records, prof_curves = [], [], []
    for i, m in enumerate(masses):
        prof = shooting.solve_monopole(met, m, tol=args.tol)
        rep = energy.intermediate_energy(prof, met)
        rows.append((m, prof.beta, rep.value, prof.R_end))
        records.append({"mass": m, "beta": prof.beta, **_run_record(prof, m)})
        if i in plotted:
            prof_curves.append((prof.r, prof.a, f"a, m={m:.3g}"))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mass", "beta", "E_I", "R_end"])
        for row in rows:
            w.writerow([_FMT % x for x in row])
    _write_sidecar(args.out, "sweep",
                   {"metric": _metric_param(args.metric), "mass_min": args.mass_min,
                    "mass_max": args.mass_max, "steps": args.steps,
                    "tol": args.tol},
                   # "threads" stays: perfbench/workloads.sweep_threads reads it
                   {"metric": met.id, "threads": 1, "rows": records})
    if args.plot:
        curves = [([m for m, *_ in rows], [b for _, b, *_ in rows], "beta(m)")]
        _svg_plot(args.plot, curves, f"mass -> beta on {met.id}")
        _svg_plot(os.path.splitext(args.plot)[0] + "_profiles.svg",
                  prof_curves, f"profiles on {met.id}")
    print(json.dumps({"out": args.out, "rows": len(rows)}))
    return 0


# oracle -> (closed form from the flags, system, default background)
_ORACLES = {
    "bps": (lambda a: oracles.bps(a.C, a.D), "minus", metric.EUCLIDEAN),
    "bps_mass": (lambda a: oracles.bps_mass(a.mass), "minus", metric.EUCLIDEAN),
    "hyperbolic": (lambda a: oracles.hyperbolic(a.mass), "minus", metric.HYPERBOLIC),
    "dirac": (lambda a: oracles.dirac_euclidean(a.mass), "minus", metric.EUCLIDEAN),
    "flat": (lambda a: oracles.flat(), "minus", metric.EUCLIDEAN),
    "bs_instanton": (lambda a: oracles.bs_instanton(a.sign), "minus", metric.BS_S4),
    "su3_instanton": (lambda a: oracles.su3_instanton(a.c, a.branch), "su3",
                      metric.BS_S4),
}


def cmd_verify(args, parser) -> int:
    if not args.r_min < args.r_max:
        parser.error("need r-min < r-max")
    make_form, system, met = _ORACLES[args.oracle]
    if args.metric:
        met = _metric_arg(args.metric)
    form = make_form(args)
    # --r-min/--r-max are in the metric's chart coordinate (s on BS)
    radii = met.chart.r_of_x(np.geomspace(args.r_min, args.r_max, args.n))
    sup = oracles.residual(form, system, met, radii)
    print(json.dumps({"oracle": args.oracle, "params": list(form.params),
                      "system": system, "metric": met.id,
                      "sup_residual": sup,
                      "range": [float(radii[0]), float(radii[-1])]}))
    return 0


def cmd_green(args, parser) -> int:
    met = _metric_arg(args.metric)
    d = green.dirac(met, args.charge, args.mass)
    out = {"metric": met.id, "charge": d.charge, "mass": d.mass,
           "r": args.r, "phi_D": float(d.phi(args.r)),
           "G": float(met.green_tail(args.r))}
    if d.charge != 0:
        fit = green.asymptotic_fit(d)
        out["fit"] = {"exponent": fit.exponent, "amplitude": fit.amplitude,
                      "offset": fit.offset,
                      "max_rel_residual": fit.max_rel_residual}
    print(json.dumps(out))
    return 0


def cmd_energy(args, parser) -> int:
    r, a, phi, h2, w = _read_profile_csv(args.profile)
    side = _sidecar_path(args.profile)
    mass = args.mass
    met_name = args.metric
    if os.path.exists(side):
        with open(side) as fh:
            rec = json.load(fh)
        mass = mass if mass is not None else rec.get("mass")
        # the solve's own --metric: a name or a file (the id is "custom")
        met_name = met_name or rec.get("parameters", {}).get("metric")
    if met_name is None:
        parser.error("--metric required when no sidecar is present")
    met = _metric_arg(met_name)
    _check_h2(args.profile, r, h2, met)
    if mass is None:
        G = met.green_tail(float(r[-1]))
        bound = 2.0 * float(a[-1]) ** 2 * G        # the read-off mass's error
        if bound > 1e-6:
            raise ValueError(f"{args.profile}: the tail bound 2 a(R)^2 G(R) = {bound:.3g} "
                             "exceeds 1e-6, so the mass cannot be read off the tail; "
                             "give --mass")
        mass = 2.0 * (G - float(phi[-1]))
    rep = energy.intermediate_energy(
        types.SimpleNamespace(r=r, a=a, phi=phi, h2=h2, w=w, mass=float(mass)), met)
    print(json.dumps({"metric": met.id, "mass": rep.mass, "E_I": rep.value,
                      "identity_residual": rep.identity_residual,
                      "boundary_limit": rep.boundary_limit,
                      "quad_tol": rep.quad_tol,
                      "max_partial_residual": rep.max_partial_residual}))
    return 0


def cmd_series(args, parser) -> int:
    met = _metric_arg(args.metric)
    sol = series.v_series(args.beta, met.series_coeffs(args.order), args.order)
    print(json.dumps({
        "metric": met.id, "beta": str(sol.beta), "order": sol.order,
        "coeffs_exact": [str(c) for c in sol.coeffs],
        "coeffs_float": sol.floats,
    }))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="g2mono",
                                description="radial monopole/instanton solver")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="shoot one monopole profile")
    s.add_argument("--metric", required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--mass", type=_POSITIVE)
    g.add_argument("--beta", type=_REAL)
    s.add_argument("--tol", type=_TOL, default=1e-10)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("sweep", help="mass sweep table")
    s.add_argument("--metric", required=True)
    s.add_argument("--mass-min", type=_POSITIVE, required=True)
    s.add_argument("--mass-max", type=_POSITIVE, required=True)
    s.add_argument("--steps", type=_COUNT, required=True)
    s.add_argument("--tol", type=_TOL, default=1e-10)
    s.add_argument("--out", required=True)
    s.add_argument("--plot")
    s.set_defaults(fn=cmd_sweep)

    s = sub.add_parser("verify", help="oracle residual check")
    s.add_argument("--oracle", required=True, choices=_ORACLES)
    s.add_argument("--metric")
    s.add_argument("--mass", type=_FINITE, default=1.0)
    s.add_argument("--C", type=_FINITE, default=1.0)
    s.add_argument("--D", type=_FINITE, default=0.0)
    s.add_argument("--c", type=_FINITE, default=1.0)
    s.add_argument("--branch", type=int, default=1, choices=(-1, 1))
    s.add_argument("--sign", type=int, default=1, choices=(-1, 1))
    s.add_argument("--r-min", type=_POSITIVE, default=0.01)
    s.add_argument("--r-max", type=_POSITIVE, default=10.0)
    s.add_argument("--n", type=_COUNT, default=200)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("green", help="Dirac monopole report")
    s.add_argument("--metric", required=True)
    s.add_argument("--charge", type=int, required=True)
    s.add_argument("--mass", type=_NONNEGATIVE, default=0.0)
    s.add_argument("--r", type=_POSITIVE, default=50.0)
    s.set_defaults(fn=cmd_green)

    s = sub.add_parser("energy", help="energy report for a profile CSV")
    s.add_argument("--profile", required=True)
    s.add_argument("--metric")
    s.add_argument("--mass", type=_NONNEGATIVE)
    s.set_defaults(fn=cmd_energy)

    s = sub.add_parser("series", help="singular-point series coefficients")
    s.add_argument("--metric", required=True)
    s.add_argument("--beta", type=_FRACTION, default="-1/3")
    s.add_argument("--order", type=_ORDER, default=12)
    s.set_defaults(fn=cmd_series)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (OSError, ValueError, ArithmeticError, ode.StiffnessError) as exc:
        print(f"g2mono: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
