"""Radial monopole and instanton solvers on rotationally invariant
backgrounds, including the Bryant-Salamon profiles.

Submodules: metric (backgrounds), fps/series (singular-point
expansion), ode (reduced systems + integration), shooting (mass
bijection), oracles (closed-form families), green (abelian monopoles),
energy (intermediate-energy identity), cli (command line).
"""

__version__ = "18.0.0"

from .metric import (EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2, MetricProfile,
                     get_metric, load_custom)
from .series import v_series
from .ode import integrate, envelope_check
from .shooting import (MonopoleProfile, mass_of_beta, beta_of_mass,
                       solve_monopole, profile_of_beta, bubbling_report)
from .oracles import (ClosedForm, bps, bps_mass, hyperbolic,
                      dirac_euclidean, flat, bs_instanton, su3_instanton,
                      residual)
from .green import dirac, harmonicity_check, asymptotic_fit
from .energy import intermediate_energy, boundary_term

__all__ = [
    "__version__",
    "EUCLIDEAN", "HYPERBOLIC", "BS_S4", "BS_CP2", "MetricProfile",
    "get_metric", "load_custom",
    "v_series",
    "integrate", "envelope_check",
    "MonopoleProfile", "mass_of_beta", "beta_of_mass", "solve_monopole",
    "profile_of_beta", "bubbling_report",
    "ClosedForm", "bps", "bps_mass", "hyperbolic", "dirac_euclidean",
    "flat", "bs_instanton", "su3_instanton", "residual",
    "dirac", "harmonicity_check", "asymptotic_fit",
    "intermediate_energy", "boundary_term",
]
