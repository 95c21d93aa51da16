"""Large-mass bubbling on bs_s4: rescaled profiles approach the BPS
monopole near the origin and the Dirac monopole outside it."""

from g2mono import metric, shooting

rep = shooting.bubbling_report([5.0, 10.0, 20.0, 40.0], metric.BS_S4)
print("lambda   sup_{r<=1/lam} |a_lam - lam r/sinh(lam r)|")
for lam, sup in zip(rep.lams, rep.sup_bps):
    print(f"{lam:6.1f}   {sup:.4e}")
print(f"strictly decreasing in lambda: {rep.sup_decreasing}")
print(f"translated-Higgs inequality 0 <= G - lam/2 - phi <= G a^2 "
      f"on r >= 1: {all(rep.translated_ok)}")
print(f"worst violation: {rep.worst_violation:.1e}")
