"""Nonlocal difference-quotient functionals, their local limits, and the
supporting quadrature, perimeter, maximal-function and divergence
machinery, at desk scale."""

from .constants import (ConstantTable, bbm_perimeter_const, degiorgi_const,
                        gamma, gaussian_norm_const)
from .errors import (BBMLabError, DimensionError, DomainError,
                     EvaluationError, IntegrationError, ProbeError,
                     ResolutionError, ValidityError)
from .fields import (AnalyticField, BVField1D, GridField, IndicatorSet,
                     VectorField, ball_set, box_set, eval_field, gaussian_bump,
                     gradient, gradient_candidate, half_space_set,
                     interval_set, linear_field, mollify, step_field,
                     zero_vector_field)
from .functionals import (DensityRequest, QuadratureScheme, bv_pointwise_limit,
                          convergence_study, domain_density, energy,
                          energy_study, local_energy, pointwise_density,
                          ponce_spector_mass, remainder_density, seeded_probes,
                          sobolev_residual)
from .maximal import (RadonMeasure1D, directional_maximal, kernel_bound_check,
                      maximal_field, maximal_function, measure_maximal,
                      singular_kernel_bound, weak11_check)
from .mollifiers import (RadialMollifier, custom, gaussian, gaussian_ladder,
                         indicator, indicator_ladder, power_law)
from .pathology import (PathologyCase, divergence_probe, gradient_mass_ladder,
                        pathological_field, shell_exponent, threshold_scan)
from .perimeter import (PerimeterEstimate, bbm_perimeter, degiorgi_field,
                        degiorgi_perimeter)
from .quadrature import RadialRule, SphereRule, radial_rule, sphere_rule
from .reports import ConvergenceReport, classify_sequence

__version__ = "0.1.0"
