"""Exponential Runge-Kutta methods for stiff linear evolution equations.

Library layout:
  matfuncs         matrix exponential, phi functions and matrices, augmented-matrix kernel
  discretize       1D advection-diffusion testbed and discrete norms
  tableaus         phi-combination tableaus and the built-in schemes
  stepping         one-matrix step propagator (eigenbasis for symmetric A), solve, RK4 reference
  orderconditions  stiff order-condition residuals
  probes           smoothing / relative-boundedness / Fourier-sum probes
  convergence      tau-grid convergence harness with CSV output
  cli              command-line front end (exprk ...)
"""

from .discretize import Grid1D, NormTriple, OperatorPair, build_grid, build_operators
from .discretize import discrete_norms, initial_data
from .matfuncs import expm, frac_power, phi_combination, phi_matrix, sym_eigen
from .stepping import SolveResult, Stepper, solve, solve_reference_rk4
from .tableaus import (PhiCombo, PhiTerm, Tableau, exponential_euler,
                       resolve_scheme, second_order, third_order)

__all__ = [
    "Grid1D", "NormTriple", "OperatorPair", "PhiCombo", "PhiTerm",
    "SolveResult", "Stepper", "Tableau", "build_grid", "build_operators",
    "discrete_norms", "expm", "exponential_euler", "frac_power",
    "initial_data", "phi_combination", "phi_matrix", "resolve_scheme",
    "second_order", "solve", "solve_reference_rk4", "sym_eigen", "third_order",
]

__version__ = "0.1.0"
