"""The doubling tower over Q and its twisted-group-ring realization.

Iterated order-two doublings of the rationals give the 2^n-dimensional
chain (rationals, a quadratic field, quaternions, octonions, sedenions);
the same tables arise from the signed recursive cocycle on XOR groups.
"""

import itertools

import numpy as np

from ringlab import (QQ, bales_alpha, bales_twisted_ring, cayley_tower,
                     center, is_simple, probe_properties)

tower = cayley_tower(QQ, 4)
print("dimensions:", [r.dim for r in tower.rings])
print("center dimensions:", [center(r).measure() for r in tower.rings])
print("associative:", [probe_properties(r).associative for r in tower.rings])

for n in range(1, 5):
    tw = bales_twisted_ring(QQ, n)
    print(f"level {n}: twisted table == doubling table:",
          np.array_equal(tw.ring.constants, tower.rings[n].constants))

# the sign table is anticommutative away from the diagonal
print("alpha(2,3) =", bales_alpha(2, 3), " alpha(3,2) =", bales_alpha(3, 2))

# the 16-dimensional double has zero divisors: search the sign table
s = tower.rings[4]
for i, j, k, l in itertools.product(range(1, 16), repeat=4):
    if i >= j or k >= l:
        continue
    acc = {}
    for p, q in ((i, k), (i, l), (j, k), (j, l)):
        acc[p ^ q] = acc.get(p ^ q, 0) + bales_alpha(p, q)
    if all(v == 0 for v in acc.values()):
        a = s.element([1 if t in (i, j) else 0 for t in range(16)])
        b = s.element([1 if t in (k, l) else 0 for t in range(16)])
        print(f"zero divisors: (e{i}+e{j})(e{k}+e{l}) =", (a * b).data)
        break

# zero divisors and all, it is simple: its reduction mod a small prime is
v = is_simple(s)
print(f"simplicity over Q, by {v.reason}:", v)
