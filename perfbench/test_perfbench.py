"""Self-tests of the benchmark: seeded inputs, output checks and tracer
hygiene.  Run with  python3 -m pytest perfbench -q  from the repository
root."""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer      # noqa: E402
import workloads   # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    b = workloads.make_inputs(workload, 8)
    assert a.ops != b.ops
    if workload == "beta-scan":
        assert a.table != b.table


def test_inputs_stay_in_their_ranges():
    for k, (backend, m) in enumerate(workloads.make_inputs("solve-bs", 3).ops):
        assert backend in ("bs_s4", "bs_cp2") and 0.25 <= m <= 16.0
    for lo, hi in workloads.make_inputs("sweep-bs", 3).ops:
        assert 0.25 <= lo < hi <= 16.0 * (1 + 1e-12)
    scan = workloads.make_inputs("beta-scan", 3)
    assert {b for b, _ in scan.ops} == {"euclidean", "hyperbolic", "bs_s4",
                                         "bs_cp2", "custom"}
    assert all(-16.0 <= beta <= -1.0 / 64.0 for _, beta in scan.ops)
    table = scan.table
    assert table[0] == 0.5 and table[-1] == 200.0
    assert all(b > a for a, b in zip(table, table[1:]))


def test_solve_check_accepts_bps_and_rejects_a_wrong_mass():
    m = 2.0
    good = (-m * m / 3.0, m, m / 2.0, 1.0)
    assert workloads.check_solve("euclidean", m, *good) == []
    wrong_mass = (good[0], m + 1e-6, good[2], 1.0)
    assert workloads.check_solve("euclidean", m, *wrong_mass)
    assert workloads.check_solve("hyperbolic", m, good[0], m + 2e-8, good[2], 1.0)
    assert workloads.check_solve("hyperbolic", m, good[0], m + 2e-9, good[2], 1.0) == []
    wrong_energy = (good[0], m, m / 2.0 + 1e-3, 1.0)
    assert workloads.check_solve("hyperbolic", m, *wrong_energy)
    wrong_beta = (-1.0, m, m / 2.0, 1.0)
    assert workloads.check_solve("euclidean", m, *wrong_beta)
    assert workloads.check_solve("bs_s4", m, -1.0, m, m / 2.0, 0.0)


def test_scan_checks_reject_a_wrong_mass_and_non_monotone_masses():
    assert workloads.check_scan("custom", -3.0, 3.0) == []
    assert workloads.check_scan("euclidean", -3.0, 3.0 + 1e-6)
    assert workloads.check_scan("bs_s4", -3.0, 2.5) == []
    ops = [("bs_s4", -1.0), ("bs_s4", -2.0), ("euclidean", -1.0)]
    assert workloads.check_scan_monotone(ops, [1.0, 1.5, 1.7]) == {}
    bad = workloads.check_scan_monotone(ops, [1.0, 0.9, 1.7])
    assert list(bad) == [1]


def test_sweep_check_rejects_non_monotone_betas_and_bad_exits():
    lo, hi = 1.0, 1.02
    rows = (lo, -1.15, lo / 2, hi, -1.18, hi / 2)
    assert workloads.check_sweep(lo, hi, 0, rows) == []
    flipped = (lo, -1.18, lo / 2, hi, -1.15, hi / 2)
    assert workloads.check_sweep(lo, hi, 0, flipped)
    assert workloads.check_sweep(lo, hi, 1, rows)
    assert workloads.check_sweep(lo, hi, 0, rows[:3])
    assert workloads.check_sweep(lo, hi, 0, rows[:5] + (hi / 2 + 1e-3,))


def test_custom_flat_table_is_exact_and_loads(tmp_path):
    from g2mono import metric
    table = workloads.make_inputs("beta-scan", 5).table
    met = metric.load_custom(workloads.write_custom_metric(table, str(tmp_path)))
    for r in (0.3, 1.0, 37.0, 150.0):
        assert math.isclose(met.h2(r), r * r, rel_tol=1e-12)
    assert math.isclose(met.green_tail(150.0), 0.5 / 150.0, rel_tol=1e-6)


def _installed():
    return [vars(owner)[attr] for owner, attr, _, _ in tracer.targets()]


def test_tracer_restores_every_wrapper_and_counts_calls():
    from g2mono import metric, shooting
    before = _installed()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(a is not b for a, b in zip(_installed(), before))
        mass = tr.run_op(1, shooting.mass_of_beta, -1.0 / 3.0, metric.EUCLIDEAN)
    finally:
        tr.uninstall()
    assert all(a is b for a, b in zip(_installed(), before))
    assert abs(mass - 1.0) < 1e-8
    assert {"shooting.mass_of_beta", "series.v_series", "ode.integrate",
            "metric.h2", "metric.green_tail"} <= tr.fired
    m = tracer.layer_metrics(tr, [1], {1: 1.0})
    assert m["series.v_series.calls_per_op"][0] == 1
    assert m["ode.nfev_per_op"][0] > 0
    selfs = tr.self_times()
    assert all(t >= 0 for t in selfs.values())


def test_tracer_restores_wrappers_when_an_op_raises():
    from g2mono import metric, shooting
    before = _installed()
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(shooting.NoSolutionError):
            tr.run_op(1, shooting.mass_of_beta, 1.0, metric.EUCLIDEAN)
    finally:
        tr.uninstall()
    assert all(a is b for a, b in zip(_installed(), before))


def test_tail_is_highest_percentile_with_ten_beyond():
    import run
    assert run.tail(range(100)) == (89, 100.0 * 89 / 99, 100)
    assert run.tail(range(21)) == (10, 50.0, 21)
    assert run.tail(range(12)) == (6, 100.0 * 6 / 11, 12)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert run.tail([4.0]) == (4.0, 0.0, 1)
