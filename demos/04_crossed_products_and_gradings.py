"""Crossed products, their canonical gradings, and graded machinery.

A skew group ring twists the base by an action; a matrix ring is a crossed
product over the pair groupoid.  Both come back with a validated grading
whose flags (locally unital, strong, non-degenerate) feed the degree map.
"""

from ringlab import (GF, RingMap, cyclic_group, dynamics_skew_group_ring,
                     enumerate_subring_ideals, gf_extension, grading_flags,
                     is_A_invariant, is_G_invariant, is_simple, matrix_ring,
                     field_algebra, support_degree_map, verify_degree_map)

f4, frobenius = gf_extension(4)
sg_maps = {0: RingMap.identity(f4), 1: RingMap(f4, f4, frobenius)}
from ringlab import skew_group_ring
cp = skew_group_ring(f4, cyclic_group(2), sg_maps)
print("F4 x Z2 size:", cp.ring.size(), " simple:", is_simple(cp.ring))
print("grading flags:", grading_flags(cp.grading))

# action invariance of base ideals coincides with ring invariance
B = cp.base_subring()
for ideal in enumerate_subring_ideals(cp.ring, B):
    assert is_G_invariant(cp, ideal) == is_A_invariant(cp.ring, B, ideal)
print("action invariance == ring invariance on every base ideal")

# support degree map over the center of the object part
dm = support_degree_map(cp.grading, "center_of_A0")
print("degree map:", verify_degree_map(dm))

# matrix rings are pair-groupoid crossed products
mr = matrix_ring(2, field_algebra(GF(3)))
print("M_2(F_3):", is_simple(mr.ring), grading_flags(mr.grading))

# finite dynamics: rotation of three points
dyn = dynamics_skew_group_ring(3, cyclic_group(3),
                               {0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}, GF(2))
print("rotation ring size:", dyn.ring.size(),
      " minimal:", dyn.minimal, " faithful:", dyn.faithful,
      " simple:", is_simple(dyn.ring).status)
