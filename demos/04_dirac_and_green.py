"""Abelian (Dirac) monopoles from the radial Green's function:
harmonicity, the r -> 0 singularity, and the rho^-5 asymptotics with
coefficient 32/5 on the Bryant-Salamon backgrounds."""

import numpy as np

from g2mono import green, metric

d = green.dirac(metric.BS_S4, charge=1, mass=1.0)
rs = np.geomspace(0.1, 50.0, 40)
print(f"harmonicity residual sup |d/dr(2 h^2 phi')| = "
      f"{green.harmonicity_check(d, rs):.2e}")

print("\n  rho       phi_D(rho)")
for r in (0.01, 0.1, 1.0, 10.0, 100.0):
    print(f"{r:7.2f}  {float(d.phi(r)):14.6f}")

fit = green.asymptotic_fit(d)
print(f"\ntail fit |phi_D + mass| ~ A (rho + c)^p:")
print(f"  p = {fit.exponent:.6f}   (expected -5)")
print(f"  A = {fit.amplitude:.6f}   (expected 32/5 = 6.4)")
print(f"  c = {fit.offset:.4f}, max relative residual {fit.max_rel_residual:.1e}")
