"""ringlab: exact computer algebra for finite rings and finite-dimensional
algebras that are neither necessarily associative nor necessarily unital.

Constructions (crossed products over finite categories, doublings, twisted
group rings, skew matrix rings, skew group rings of finite dynamics, skew
polynomials), brute-force ideal oracles, graded-ring machinery with degree
maps, and certificate pipelines that cross-check structural simplicity
statements against the oracles.
"""

from .linalg import GF, QQ
from .rings import (Element, PropertyReport, Ring, StructureAlgebra, TableRing,
                    enumerate_elements, field_algebra, full_matrix_algebra,
                    functions_ring, gf_extension, make_structure_algebra,
                    make_table_ring, opposite, probe_properties, ring_eval,
                    truncated_polynomial_ring, zmod_ring)
from .subgroups import additive_span, product_span
from .ideals import (IdealBasis, Subring, center, centralizer,
                     check_ideal_associativity, enumerate_ideals,
                     enumerate_subring_ideals, full_subring, ideal_closure,
                     identity_property, is_A_invariant, is_A_simple,
                     is_maximal_commutative, is_simple, apply_i_and_p,
                     principal_ideal, subring_closure)
from .categories import (FiniteCategory, abelian_group, cyclic_group,
                         pair_groupoid, xor_group)
from .gradings import (DegreeMap, GradedRing, Grading,
                       check_invariance_componentwise, grading_flags,
                       ideal_intersection_property,
                       local_units_full_ideal_test, support,
                       support_degree_map, trivial_grading, validate_grading,
                       verify_degree_map)
from .constructions import (CrossedProduct, CrossedSystem, RingMap,
                            bales_alpha, bales_twisted_ring, cayley_dickson,
                            cayley_tower, crossed_product, crossed_products,
                            dynamics_skew_group_ring, dynamics_skew_group_rings,
                            is_G_invariant,
                            is_G_simple, matrix_ring, skew_group_ring,
                            twisted_group_ring, validate_crossed_system)
from .ore import (SigmaDerivationData, SkewPolynomial,
                  check_A_invariance_truncated, commutator_degree_drop,
                  commutator_drop_failure, is_sigma_delta_invariant, is_sigma_delta_simple, ore_degree_map,
                  ore_mul, s_coefficients, validate_sigma_derivation)
from .certify import (Certificate, certify_built, certify_cayley,
                      certify_crossed_product, certify_dynamics,
                      certify_groupoid_graded,
                      certify_matrix, certify_necessity, certify_sufficiency,
                      certify_tower, certify_twisted, simple_by_density,
                      survey_finite_dynamics)
from .corpus import corpus_instances, cross_check_corpus, graded_corpus

__version__ = "0.1.0"
