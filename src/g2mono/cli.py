"""Command-line surface: solve / sweep / verify / green / energy / series.

File conventions: profile CSV with fixed header ``r,a,phi,v`` at 17
significant digits; every data file gets a JSON sidecar run record
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, energy, green, metric, ode, oracles, series, shooting

_FMT = "%.17g"


def _metric_arg(name: str):
    if name.endswith(".txt") or name.endswith(".cfg") or os.path.sep in name:
        return metric.load_custom(name)
    return metric.get_metric(name)


def _tol_arg(text: str) -> float:
    try:
        return ode.check_tol(float(text))
    except ValueError as exc:           # a usage error: argparse exits 2
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a number or fraction: {text!r}") from None


def _real_arg(text: str) -> float:
    """A float that may be written as a fraction, e.g. -1/3."""
    return float(_fraction_arg(text))


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


def _write_profile_csv(path: str, prof):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "a", "phi", "v"])
        for r, a, phi, v in zip(prof.r, prof.a, prof.phi, prof.v):
            w.writerow([_FMT % r, _FMT % a, _FMT % phi, _FMT % v])


def _read_profile_csv(path: str):
    rows = {"r": [], "a": [], "phi": [], "v": []}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for k in rows:
                rows[k].append(float(row[k]))
    return {k: np.asarray(v) for k, v in rows.items()}


@dataclass
class SampledProfile:
    r: np.ndarray
    a: np.ndarray
    phi: np.ndarray
    mass: float
    result = None
    flat: bool = False


def _svg_plot(path: str, curves, title: str, width=640, height=420):
    """Minimal SVG line plot: list of (xs, ys, label)."""
    pad = 50
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
    if (args.mass is None) == (args.beta is None):
        parser.error("exactly one of --mass / --beta is required")
    met = _metric_arg(args.metric)
    if args.mass is not None:
        prof = shooting.solve_monopole(met, args.mass, tol=args.tol)
    else:
        prof = shooting.profile_of_beta(args.beta, met, tol=args.tol)
    _write_profile_csv(args.out, prof)
    _write_sidecar(args.out, "solve",
                   {"metric": args.metric, "mass": args.mass,
                    "beta": args.beta, "tol": args.tol},
                   {"metric": met.id, "beta": prof.beta, "mass": prof.mass,
                    "tol": prof.tol,
                    "tail": {"R_end": prof.R_end, "a_end": prof.a_end,
                             "bound": prof.tail[2]},
                    **_run_record(prof, args.mass)})
    print(json.dumps({"out": args.out, "mass": prof.mass, "beta": prof.beta}))
    return 0


def cmd_sweep(args, parser) -> int:
    if args.steps < 1 or args.mass_min <= 0 or args.mass_max < args.mass_min:
        parser.error("need steps >= 1 and 0 < mass-min <= mass-max")
    met = _metric_arg(args.metric)
    masses = np.linspace(args.mass_min, args.mass_max, args.steps)
    rows = []
    for m in masses:
        prof = shooting.solve_monopole(met, m, tol=args.tol)
        rep = energy.intermediate_energy(prof, met)
        rows.append((m, prof.beta, rep.value, prof.R_end, prof))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mass", "beta", "E_I", "R_end"])
        for m, beta, e, R, _ in rows:
            w.writerow([_FMT % m, _FMT % beta, _FMT % e, _FMT % R])
    _write_sidecar(args.out, "sweep",
                   {"metric": args.metric, "mass_min": args.mass_min,
                    "mass_max": args.mass_max, "steps": args.steps,
                    "tol": args.tol},
                   {"metric": met.id, "threads": 1,
                    "rows": [{"mass": m, "beta": beta, **_run_record(prof, m)}
                             for m, beta, _, _, prof in rows]})
    if args.plot:
        curves = [([m for m, *_ in rows], [b for _, b, *_ in rows], "beta(m)")]
        _svg_plot(args.plot, curves, f"mass -> beta on {met.id}")
        prof_curves = [(rows[i][4].r, rows[i][4].a, f"a, m={rows[i][0]:.3g}")
                       for i in range(0, len(rows), max(1, len(rows) // 4))]
        _svg_plot(os.path.splitext(args.plot)[0] + "_profiles.svg",
                  prof_curves, f"profiles on {met.id}")
    print(json.dumps({"out": args.out, "rows": len(rows)}))
    return 0


_ORACLES = ("bps", "bps_mass", "hyperbolic", "dirac", "flat",
            "bs_instanton", "su3_instanton")


def cmd_verify(args, parser) -> int:
    name = args.oracle
    met = _metric_arg(args.metric) if args.metric else None
    if name == "bps":
        form, system = oracles.bps(args.C, args.D), "minus"
        met = met or metric.EUCLIDEAN
    elif name == "bps_mass":
        form, system = oracles.bps_mass(args.mass), "minus"
        met = met or metric.EUCLIDEAN
    elif name == "hyperbolic":
        form, system = oracles.hyperbolic(args.mass), "minus"
        met = met or metric.HYPERBOLIC
    elif name == "dirac":
        form, system = oracles.dirac_euclidean(args.mass), "minus"
        met = met or metric.EUCLIDEAN
    elif name == "flat":
        form, system = oracles.flat(), "minus"
        met = met or metric.EUCLIDEAN
    elif name == "bs_instanton":
        form, system = oracles.bs_instanton(args.sign), "minus"
        met = met or metric.BS_S4
    elif name == "su3_instanton":
        form, system = oracles.su3_instanton(args.c, args.branch), "su3"
        met = met or metric.BS_S4
    else:
        parser.error(f"unknown oracle {name!r}")
    # --r-min/--r-max are in the metric's chart coordinate (s on BS)
    radii = met.chart.r_of_x(np.geomspace(args.r_min, args.r_max, args.n))
    sup = oracles.residual(form, system, met, radii)
    print(json.dumps({"oracle": name, "params": list(form.params),
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
    data = _read_profile_csv(args.profile)
    side = _sidecar_path(args.profile)
    mass = args.mass
    met_name = args.metric
    if os.path.exists(side):
        with open(side) as fh:
            rec = json.load(fh)
        mass = mass if mass is not None else rec.get("mass")
        met_name = met_name or rec.get("metric")
    if met_name is None:
        parser.error("--metric required when no sidecar is present")
    met = _metric_arg(met_name)
    if mass is None:
        R = float(data["r"][-1])
        mass = 2.0 * (met.green_tail(R) - float(data["phi"][-1]))
    prof = SampledProfile(r=data["r"], a=data["a"], phi=data["phi"],
                          mass=float(mass), flat=float(mass) == 0.0)
    rep = energy.intermediate_energy(prof, met)
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
        "coeffs_float": [float(c) for c in sol.coeffs],
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
    s.add_argument("--mass", type=_finite_arg)
    s.add_argument("--beta", type=_real_arg)
    s.add_argument("--tol", type=_tol_arg, default=1e-10)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("sweep", help="mass sweep table")
    s.add_argument("--metric", required=True)
    s.add_argument("--mass-min", type=_finite_arg, required=True)
    s.add_argument("--mass-max", type=_finite_arg, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--tol", type=_tol_arg, default=1e-10)
    s.add_argument("--out", required=True)
    s.add_argument("--plot")
    s.set_defaults(fn=cmd_sweep)

    s = sub.add_parser("verify", help="oracle residual check")
    s.add_argument("--oracle", required=True, choices=_ORACLES)
    s.add_argument("--metric")
    s.add_argument("--mass", type=_finite_arg, default=1.0)
    s.add_argument("--C", type=_finite_arg, default=1.0)
    s.add_argument("--D", type=_finite_arg, default=0.0)
    s.add_argument("--c", type=_finite_arg, default=1.0)
    s.add_argument("--branch", type=int, default=1, choices=(-1, 1))
    s.add_argument("--sign", type=int, default=1, choices=(-1, 1))
    s.add_argument("--r-min", type=_finite_arg, default=0.01)
    s.add_argument("--r-max", type=_finite_arg, default=10.0)
    s.add_argument("--n", type=_count_arg, default=200)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("green", help="Dirac monopole report")
    s.add_argument("--metric", required=True)
    s.add_argument("--charge", type=int, required=True)
    s.add_argument("--mass", type=_finite_arg, default=0.0)
    s.add_argument("--r", type=_finite_arg, default=50.0)
    s.set_defaults(fn=cmd_green)

    s = sub.add_parser("energy", help="energy report for a profile CSV")
    s.add_argument("--profile", required=True)
    s.add_argument("--metric")
    s.add_argument("--mass", type=_finite_arg)
    s.set_defaults(fn=cmd_energy)

    s = sub.add_parser("series", help="singular-point series coefficients")
    s.add_argument("--metric", required=True)
    s.add_argument("--beta", type=_fraction_arg, default="-1/3")
    s.add_argument("--order", type=int, default=12)
    s.set_defaults(fn=cmd_series)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (shooting.NoSolutionError, shooting.OutOfRangeError,
            energy.UndefinedEnergyError, metric.DomainError,
            metric.NonparabolicRequired, metric.UnsupportedBackend,
            series.SeriesTruncationError, OSError, ValueError) as exc:
        print(f"g2mono: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
