"""Ring constructions: crossed products over finite categories and their
specializations (skew/twisted group rings, doublings, matrix rings, and
skew group rings of finite dynamical systems).  Every construction returns
the ring together with its canonical grading."""

from .crossed import (CrossedProduct, CrossedSystem, RingMap,
                      crossed_product, crossed_products, is_G_invariant, is_G_simple,
                      skew_group_ring, twisted_group_ring,
                      validate_crossed_system)
from .doubling import (CayleyDoubling, bales_alpha, bales_twisted_ring,
                       cayley_dickson, cayley_tower)
from .matrices import matrix_ring
from .dynamics import dynamics_skew_group_ring, dynamics_skew_group_rings

__all__ = [
    "CrossedProduct", "CrossedSystem", "RingMap", "crossed_product", "crossed_products",
    "validate_crossed_system", "skew_group_ring", "twisted_group_ring",
    "is_G_invariant", "is_G_simple",
    "CayleyDoubling", "bales_alpha", "bales_twisted_ring", "cayley_dickson",
    "cayley_tower", "matrix_ring", "dynamics_skew_group_ring",
    "dynamics_skew_group_rings",
]
