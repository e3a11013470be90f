"""Numerics for the tt*-Toda equations.

Explicit asymptotic <-> monodromy data maps built from Gamma-function
products, the generating function of the chart change, the radial
Hamiltonian flow with an adaptive embedded Runge-Kutta integrator, and
the tau-function connection constant computed both by regularized
quadrature along global solutions and in closed form.
"""

from .special_functions import (DomainError, log_barnes_g, log_gamma, psi_m2,
                                psi_m2_oracle)
from .data_maps import (AsymptoticData, GenericityError, MonodromyData,
                        ShapeError, asymptotic_to_monodromy, check_genericity,
                        expand_full, expand_reduced, gen_fun_F, global_rho,
                        log_x_k, monodromy_to_asymptotic, reduced_length,
                        verify_generating_function, verify_symplectic)
from .hamiltonian_flow import (IntegratorConfig, PhasePoint, Trajectory,
                               UnsupportedConfigError, check_quasihomogeneity,
                               hamiltonian, integrate, tail_amplitude_s1,
                               trajectory_to_csv, vector_field)
from .global_solutions import (GlobalSolution, GlobalSolveError,
                               init_from_asymptotics, make_backward_basis,
                               solve_global)
from .tau_constant import (BlowupError, ConstantReport, classical_action,
                           constant_closed, constant_numeric, log_tau)

__version__ = "0.1.0"
