"""Shoot the Euclidean monopole of mass 1 and compare against the
closed-form BPS profile a = r/sinh r, phi = (1/r - coth r)/2."""

import numpy as np

from g2mono import metric, oracles, shooting

prof = shooting.solve_monopole(metric.EUCLIDEAN, mass=1.0)
print(f"shooting parameter beta = {prof.beta:.12f}   (closed form: -1/3)")
print(f"extracted mass          = {prof.mass:.12f}")

rs = np.linspace(0.0, 10.0, 201)
a_ref = np.array([oracles.bps_mass(1.0).state(r).a for r in rs])
phi_ref = np.array([oracles.bps_mass(1.0).state(r).phi for r in rs])
print(f"sup |a - a_BPS|   on [0,10]: {np.max(np.abs(prof.eval_a(rs) - a_ref)):.2e}")
print(f"sup |phi - phi_BPS] on [0,10]: {np.max(np.abs(prof.eval_phi(rs) - phi_ref)):.2e}")

print("\n   r        a(r)          phi(r)")
for r in (0.5, 1.0, 2.0, 5.0, 10.0):
    print(f"{r:6.2f}  {prof.eval_a(r):12.8f}  {prof.eval_phi(r):12.8f}")
