"""Melnikov expansions, certified root isolation, inverse design and direct
simulation for planar Liénard systems with a sign-switching perturbation.

Two switching families are supported: across the x-axis (sgn(y), Case Y)
and across the y-axis (sgn(x), Case X).  Expansion coefficients live in the
exact ring Q[sqrt(2), pi, 1/pi]; floats appear only at evaluation time.
"""

from .algebra import INV_PI, PI, SQRT2, HalfPowerPoly, RingElem
from .design import design_case_x, design_case_y, verify_design
from .errors import (EscapeAnnulus, InfeasibleShape, InvalidInput,
                     MaxStepsExceeded, NegativeEnergy, NoConvergence,
                     NonTransversalCrossing, OddnessViolated, PrecisionLoss,
                     PwLienardError, QuadratureFailure, SimulationError,
                     TooManyTargets, WrongCase, ZeroLambda, ZeroPolynomial)
from .melnikov import (MelnikovExpansion, TheoremForm, expand,
                       fold_to_theorem_form, theorem_form_system, zero_bound)
from .oracle import oracle_m0, oracle_m1, quad_I
from .roots import IsolatedRoot, RootReport, isolate_positive_roots
from .simulator import (BACKEND, CycleReport, CycleScan, SimConfig,
                        advance_to_section, bifurcation_increment,
                        displacement, find_cycles)
from .systems import PRESET_NAMES, Case, LienardSystem, load_preset

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "Case", "CycleReport", "CycleScan",
    "EscapeAnnulus", "HalfPowerPoly", "INV_PI", "InfeasibleShape",
    "InvalidInput", "IsolatedRoot", "LienardSystem", "MaxStepsExceeded",
    "MelnikovExpansion", "NegativeEnergy", "NoConvergence",
    "NonTransversalCrossing", "OddnessViolated", "PI", "PRESET_NAMES",
    "PrecisionLoss",
    "PwLienardError", "QuadratureFailure", "RingElem", "RootReport",
    "SQRT2", "SimConfig", "SimulationError", "TheoremForm", "TooManyTargets",
    "WrongCase", "ZeroLambda", "ZeroPolynomial", "advance_to_section",
    "bifurcation_increment", "design_case_x", "design_case_y",
    "displacement", "expand", "find_cycles", "fold_to_theorem_form", "isolate_positive_roots",
    "load_preset", "oracle_m0", "oracle_m1", "quad_I", "theorem_form_system",
    "verify_design", "zero_bound",
]
