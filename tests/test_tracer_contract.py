"""The benchmark tracer's contract: every layer a workload lists in
`perfbench/tracer.EXPECTED` fires on each op, not only on the first one
a process runs on a metric.  A memo that outlives one solve would stop
`fps.reversion` or `metric.series_coeffs` work from firing on later ops,
and a traced benchmark run would then stop with "wrappers never fired".
`perfbench/tracer.py` is imported read-only, as its own self-tests do."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer      # noqa: E402

from g2mono import energy, metric, shooting   # noqa: E402


def _solve_op(met, m):
    prof = shooting.solve_monopole(met, m)
    energy.intermediate_energy(prof, met)


def _scan_op(mets, beta):
    for met in mets:
        shooting.mass_of_beta(beta, met)


def _layers_of_second_op(op, args):
    """Run `op` twice on the same metric objects, traced; the layers that
    fired in the second op alone."""
    t = tracer.Tracer()
    t.install()
    try:
        t.run_op(0, op, *args)
        t.run_op(1, op, *args)
    finally:
        t.uninstall()
    spans = {s.name for s in t.spans if s.op == 1}
    counters = {name for name, op in t.counters if op == 1}
    return spans | counters


@pytest.mark.parametrize("workload,op,args", [
    ("solve-bs", _solve_op, (metric.BS_S4, 1.0)),
    ("solve-bs", _solve_op, (metric.BS_CP2, 3.0)),
    # a BS shot runs in the s chart, where `metric.h2` is not called;
    # the beta-scan workload gets it from its identity-chart backends,
    # and only the BS shot can fire `fps.reversion`
    ("beta-scan", _scan_op, ((metric.BS_S4, metric.EUCLIDEAN), -1.0)),
], ids=["solve-bs4", "solve-bs-cp2", "beta-scan-bs4-euclidean"])
def test_every_expected_layer_fires_on_a_repeated_op(workload, op, args):
    fired = _layers_of_second_op(op, args)
    assert tracer.EXPECTED[workload] <= fired, \
        sorted(tracer.EXPECTED[workload] - fired)

