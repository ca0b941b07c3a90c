"""Exact classical and p-adic differential algebra with verification tools."""

from .padic import (TruncatedPadic, PrecisionError, delta_base, teichmuller,
                    is_delta_constant)
from .poly import (MultiPoly, Chart, ChartElement, ChartError, ZZ, QQ, Zp,
                   FiberNF, SphereNF, parse_poly)
from .forms import DiffForm, FiberFrame, lie_derivative, phi_star_over_p
from .flows import (ClassicalFlow, ArithmeticFlow, PoissonStructure,
                    check_prime_integral, is_canonical_flow,
                    poisson_from_symplectic, is_symplectic_hamiltonian,
                    lax_flow, char_poly_coeffs, isospectrality_defect,
                    euler_lagrange_form, el_defect)
from .jets import JetPresentation, prolong, jet_of_point, is_solution
from .euler import (EulerSystem, AdmissibleFiber, PreconditionError,
                    NoAdmissibleFiber, InadmissibleFiber, classical_euler_flow,
                    hasse_invariant, build_flow, gauge_adjust,
                    verify_linearization, verify_new1, fiber_frobenius,
                    derive_new2_form, count_points_and_ap, hasse_value)
from .lax import (PMatrix, char_poly, conj, phi0_entrywise, eigen_split,
                  frobenius_star, frobenius_star_star, conjugate_lift,
                  spectrum_delta_constant_check)

__version__ = "0.1.0"
