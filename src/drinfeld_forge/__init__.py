"""Exact constructions for centrally extended classical Lie algebras.

The package builds the A/B/C/D series over the field Q(i, sqrt2), splits
each algebra into a Manin triple over its Drinfeld double, derives the
Lie-bialgebra structure and classical r-matrix, and verifies the whole
stack bit-exactly, with oscillator matrix representations as cross-checks.
"""

from .algebra import (LieAlgebra, build_series, mutate_bracket,
                      shift_generator, verify_jacobi)
from .bialgebra import (SPAN_BUILDERS, a_chain_span, build_r_matrix,
                        orthogonal_span_in_b, twisted_cartan_part,
                        verify_chain_embedding, verify_coboundary,
                        verify_cocycle, verify_cojacobi, verify_cybe,
                        verify_subbialgebra, verify_twist)
from .cocommutator import (cocommutator_explicit, cocommutator_from_structure,
                           delta_discrepancy_audit,
                           discrepancy_report_markdown,
                           verify_delta_agreement, wedge_insert)
from .double import (casimir_double, casimir_quadratic, crossed_brackets,
                     structure_tensors, verify_casimir_form, verify_closure,
                     verify_compatibility, verify_form_invariance,
                     verify_pairing, verify_reconstruction,
                     verify_self_duality)
from .elements import Element
from .errors import (ClosureError, ForeignGeneratorError, NotASubalgebraError,
                     RankError, SpecError)
from .generators import (SERIES, GeneratorId, cartan_count, dimension,
                         enumerate_generators, mirror, parse_label,
                         positive_roots, validate_series_rank, weight)
from .manin import (CartanRotation, ManinTriple, SplittingSpec,
                    canonical_triple, perturb_pairing, rescale_minus, split,
                    with_double)
from .reporting import CheckReport
from .reps import (Representation, ad_invariance_report, bosonic_rep,
                   fermionic_rep, verify_casimir_commutes,
                   verify_rep_homomorphism)
from .scalars import HALF, I, I_SQRT2, INV_SQRT2, ONE, SQRT2, ZERO, Scalar

__version__ = "0.1.0"
