"""Seeded inputs, the operations they drive and the checks on their outputs.

g2mono sees only what these generators produce from the workload seed.
Masses and betas come from a Kronecker sequence (u_k = u_0 + k g mod 1,
g the golden ratio conjugate) with a seeded start u_0: every prefix
covers the range evenly, so the median op of a short run does not hinge
on which masses the seed happened to draw.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("solve-flat", "solve-bs", "sweep-bs", "beta-scan")

N_INPUTS = 8192            # more ops than any run of at most 60 s can use
MASS_RANGE = (0.25, 16.0)
BETA_RANGE = (1.0 / 64.0, 16.0)   # |beta|
SWEEP_WIDTH = 0.02                # relative width of a sweep-bs mass window
SWEEP_STEPS = 2
SERIES_ORDER = 12
TABLE_ROWS = 257
TABLE_SPAN = (0.5, 200.0)

# solve_monopole roots beta with shots at ODE tol 1e-9 to |m(beta) - m|
# <= 1e-9 (ROOT_TOL), then re-shoots the profile at tol 1e-10; the
# reported mass is thus mass_of_beta(beta_of_mass(m)), which acceptance
# criterion 5 bounds by 1e-8 (MASS_TOL).  The two shots' ODE errors differ
# by ~1e-10 * m, so ROOT_TOL is only recorded, not checked.
ROOT_TOL = 1e-9
MASS_TOL = 1e-8
ENERGY_TOL = 1e-5         # |E_I - m/2|, acceptance criterion 11
BPS_REL_TOL = 1e-9        # euclidean beta = -m^2/3
FLAT_MASS_TOL = 1e-8      # euclidean / flat table: m = sqrt(-3 beta)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Inputs:
    workload: str
    ops: tuple                     # per op: (backend, value) or (lo, hi)
    table: tuple = ()              # custom flat table radii (beta-scan)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _spread(rng: random.Random, n: int) -> list[float]:
    u0 = rng.random()
    return [(u0 + k * _GOLDEN) % 1.0 for k in range(n)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = _rng(workload, seed)
    if workload in ("solve-flat", "solve-bs"):
        pair = ["euclidean", "hyperbolic"] if workload == "solve-flat" \
            else ["bs_s4", "bs_cp2"]
        rng.shuffle(pair)
        ops = tuple((pair[k % 2], _log_uniform(u, *MASS_RANGE))
                    for k, u in enumerate(_spread(rng, N_INPUTS)))
        return Inputs(workload, ops)
    if workload == "sweep-bs":
        top = MASS_RANGE[1] / (1.0 + SWEEP_WIDTH)
        ops = []
        for u in _spread(rng, N_INPUTS):
            lo = _log_uniform(u, MASS_RANGE[0], top)
            ops.append((lo, lo * (1.0 + SWEEP_WIDTH)))
        return Inputs(workload, tuple(ops))
    if workload == "beta-scan":
        backends = ["euclidean", "hyperbolic", "bs_s4", "bs_cp2", "custom"]
        rng.shuffle(backends)
        ops = tuple((backends[k % 5], -_log_uniform(u, *BETA_RANGE))
                    for k, u in enumerate(_spread(rng, N_INPUTS)))
        # log-spaced radii with seeded interior jitter; h = r is exact under
        # the backend's log-log interpolation wherever the radii fall
        lo, hi = TABLE_SPAN
        steps = TABLE_ROWS - 1
        table = [lo] + [lo * (hi / lo) ** ((i + rng.uniform(-0.3, 0.3)) / steps)
                        for i in range(1, steps)] + [hi]
        return Inputs(workload, ops, tuple(table))
    raise ValueError(f"unknown workload {workload!r}")


def write_custom_metric(table, directory: str) -> str:
    """Write the flat custom backend (h = r) and return its path."""
    table_path = os.path.join(directory, "flat_table.csv")
    with open(table_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "h"])
        for r in table:
            w.writerow([repr(r), repr(r)])
    path = os.path.join(directory, "flat_custom.txt")
    with open(path, "w") as fh:
        fh.write("type=custom\n")
        fh.write("coeffs=" + ",".join(["1"] + ["0"] * SERIES_ORDER) + "\n")
        fh.write(f"table={table_path}\n")
    return path


# ---------------------------------------------------------------------------
# operations: each returns the outputs the checks and the tracer compare
# ---------------------------------------------------------------------------

class Runner:
    """Binds a workload's inputs to g2mono.  Every call into g2mono reads
    the function from the namespace its own callers use, so that the
    tracer's wrappers see it."""

    def __init__(self, inputs: Inputs, workdir: str):
        from g2mono import cli, energy, metric, shooting
        self._cli, self._energy, self._shooting = cli, energy, shooting
        self.inputs = inputs
        self.workdir = workdir
        self.metrics = {name: metric.get_metric(name)
                        for name in ("euclidean", "hyperbolic", "bs_s4", "bs_cp2")}
        if inputs.table:
            self.metrics["custom"] = metric.load_custom(
                write_custom_metric(inputs.table, workdir))
        if inputs.workload == "sweep-bs":
            os.environ["G2MONO_THREADS"] = str(len(os.sched_getaffinity(0)))

    def run(self, k: int):
        """Run op k; return its outputs as a tuple of floats."""
        w = self.inputs.workload
        if w in ("solve-flat", "solve-bs"):
            backend, m = self.inputs.ops[k]
            met = self.metrics[backend]
            prof = self._shooting.solve_monopole(met, m)
            rep = self._energy.intermediate_energy(prof, met)
            return (prof.beta, prof.mass, rep.value, float(rep.passed))
        if w == "beta-scan":
            backend, beta = self.inputs.ops[k]
            return (self._shooting.mass_of_beta(beta, self.metrics[backend]),)
        lo, hi = self.inputs.ops[k]
        out = os.path.join(self.workdir, f"sweep-{k}.csv")
        argv = ["sweep", "--metric", "bs_s4", "--mass-min", repr(lo),
                "--mass-max", repr(hi), "--steps", str(SWEEP_STEPS), "--out", out]
        with redirect_stdout(io.StringIO()):
            rc = self._cli.main(argv)
        return (float(rc),) + read_sweep(out)

    def check(self, k: int, out) -> list[str]:
        """Per-op checks; beta-scan monotonicity is checked across ops by
        check_scan_monotone."""
        w = self.inputs.workload
        if w in ("solve-flat", "solve-bs"):
            backend, m = self.inputs.ops[k]
            return check_solve(backend, m, *out)
        if w == "beta-scan":
            backend, beta = self.inputs.ops[k]
            return check_scan(backend, beta, out[0])
        return check_sweep(*self.inputs.ops[k], int(out[0]), out[1:])


def read_sweep(path: str) -> tuple:
    """(mass, beta, E_I) of every row of a sweep CSV, flattened."""
    flat = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                flat += [float(row["mass"]), float(row["beta"]), float(row["E_I"])]
    except FileNotFoundError:
        pass
    return tuple(flat)


def sweep_threads(workdir: str, k: int) -> int:
    """Pool size the sweep of op k recorded in its JSON sidecar."""
    with open(os.path.join(workdir, f"sweep-{k}.json")) as fh:
        return int(json.load(fh)["threads"])


# ---------------------------------------------------------------------------
# output checks against closed forms and identities
# ---------------------------------------------------------------------------

def check_solve(backend: str, m: float, beta: float, mass: float, e_i: float,
                passed: float) -> list[str]:
    errs = []
    if not abs(mass - m) <= MASS_TOL:
        errs.append(f"|mass - m| = {abs(mass - m):.3e} > {MASS_TOL}")
    if not passed:
        errs.append("EnergyReport.passed is false")
    if not abs(e_i - m / 2.0) <= ENERGY_TOL:
        errs.append(f"|E_I - m/2| = {abs(e_i - m / 2.0):.3e} > {ENERGY_TOL}")
    if backend == "euclidean":
        bps = -m * m / 3.0
        if not abs(beta - bps) <= BPS_REL_TOL * abs(bps):
            errs.append(f"beta = {beta!r} vs BPS {bps!r}")
    return errs


def check_scan(backend: str, beta: float, mass: float) -> list[str]:
    if backend in ("euclidean", "custom"):
        exact = math.sqrt(-3.0 * beta)
        if not abs(mass - exact) <= FLAT_MASS_TOL:
            return [f"|m - sqrt(-3 beta)| = {abs(mass - exact):.3e} > {FLAT_MASS_TOL}"]
    return []


def check_scan_monotone(ops, masses) -> dict:
    """Mass must strictly increase as beta decreases on each backend.
    `ops` are (backend, beta) and `masses` the matching outputs; returns
    {op index: [error]} for the op that breaks the order."""
    bad = {}
    by_backend = {}
    for k, (backend, beta) in enumerate(ops):
        by_backend.setdefault(backend, []).append((-beta, masses[k], k))
    for backend, pts in by_backend.items():
        pts.sort()
        for (b0, m0, _), (b1, m1, k1) in zip(pts, pts[1:]):
            if not (b1 > b0 and m1 > m0):
                bad.setdefault(k1, []).append(
                    f"{backend}: mass {m1!r} at beta {-b1!r} does not exceed "
                    f"{m0!r} at beta {-b0!r}")
    return bad


def check_sweep(lo: float, hi: float, rc: int, flat_rows) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rows = [flat_rows[i:i + 3] for i in range(0, len(flat_rows), 3)]
    if len(rows) != SWEEP_STEPS:
        return [f"{len(rows)} CSV rows, expected {SWEEP_STEPS}"]
    errs = []
    if abs(rows[0][0] - lo) > 1e-12 * lo or abs(rows[-1][0] - hi) > 1e-12 * hi:
        errs.append(f"masses {rows[0][0]!r}..{rows[-1][0]!r} != window {lo!r}..{hi!r}")
    for (m0, b0, _), (m1, b1, _) in zip(rows, rows[1:]):
        if not (m1 > m0 and b1 < b0):
            errs.append(f"beta {b1!r} at mass {m1!r} not below {b0!r} at {m0!r}")
    for m, _, e_i in rows:
        if not abs(e_i - m / 2.0) <= ENERGY_TOL:
            errs.append(f"|E_I - m/2| = {abs(e_i - m / 2.0):.3e} at mass {m!r}")
    return errs
