"""Skew polynomials: x·b = sigma(b)·x + delta(b).

Over F_5[y]/(y^5) with the formal derivative, x and y satisfy the Weyl-like
relation x·y = y·x + 1; the degree-plus-one map drops on commutators, which
is the engine behind the simplicity arguments for differential rings.
"""

import numpy as np

from ringlab import (RingMap, SigmaDerivationData, commutator_degree_drop,
                     is_sigma_delta_simple, ore_degree_map, s_coefficients,
                     truncated_polynomial_ring, validate_sigma_derivation)

base = truncated_polynomial_ring(5, 5)
ddy = np.zeros((5, 5), dtype=np.int64)
for i in range(1, 5):
    ddy[i, i - 1] = i
data = SigmaDerivationData(base, RingMap.identity(base), RingMap(base, base, ddy))
print("validation:", all(ok for _, ok, _ in validate_sigma_derivation(data)))

y = base.basis_element(1)
xy = data.x() * data.constant(y)
print("x*y coefficients (ascending):", [c.data for c in xy.coeffs])
print("s-coefficients of x^2·y:", [c.data for c in s_coefficients(2, y, data)])

print("base is sigma-delta-simple:", is_sigma_delta_simple(data))

a = data.x() + data.constant(y)          # monic of degree 1
drop, comm = commutator_degree_drop(a, "x", data)
print("[x+y, x] =", [c.data for c in comm.coeffs],
      " degree map drops:", drop,
      f"({ore_degree_map(a)} -> {ore_degree_map(comm)})")
