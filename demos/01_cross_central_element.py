#!/usr/bin/env python3
# A walk through the 4-edge cross: a plus-shaped space whose two axes are
# flipped by an order-4 reflection group.  The groupoid of germs of that
# action is not Hausdorff, and the algebra of the four sheet indicators
# contains a surprise: a central element supported entirely at the center.

import random

from germoid import (
    GermGroupoid,
    cross_central_element,
    embed_C0,
    lambda_scalar,
    open_support,
    verify_central_ideal,
)
from germoid.algebra import cross_generators
from germoid.germs import CenterGerm
from germoid.sampling import random_algebra_element, random_ppfun

G = GermGroupoid.cross()
print("the cross groupoid:", G)
print("acting group:", [str(s) for s in G.group])

# Each group element sweeps out a sheet over the whole star; the alternating
# sum of the four sheet indicators kills every strip, leaving only values at
# the four center germs.
f = cross_central_element(G)
print("\nf =", f)
for s in G.group:
    print(f"  f at the center germ of {s}: {f.evaluate(CenterGerm(s))}")
print("open support:", open_support(f))

# f is nonzero only on isotropy germs, so convolving against anything
# collapses to a scalar: g*f = f*g = lambda(g) f, exactly.
rng = random.Random(0)
tests = cross_generators(G) + [random_algebra_element(G, rng) for _ in range(25)]
report = verify_central_ideal(f, tests)
print(f"\ng*f = f*g = lambda(g) f for all {len(tests)} test elements:", report.all_commute)
print("f*f =", "4f" if f * f == f.scale(4) else "???", "(lambda(f) =", str(lambda_scalar(f)) + ")")

# Consequences: the line through f is a two-sided ideal that misses the
# diagonal subalgebra, and f commutes with every diagonal element without
# being one, so the diagonal is not maximal abelian here.
print("f is outside the diagonal subalgebra:", report.not_in_C0)
print("span{f} meets the diagonal only in 0:", report.span_meets_diagonal_trivially)
h = random_ppfun(4, rng)
e = embed_C0(G, h)
print("f commutes with a random diagonal element:", f * e == e * f)

# None of this would be possible over a Hausdorff groupoid; the diagnostics
# show where Hausdorffness dies.
result = G.hausdorff_check()
print("\nhausdorff:", result.hausdorff)
print("inseparable center germs:", [f"{{{a}, {b}}}" for a, b in result.witnesses])
ep, _ = G.essentially_principal_check()
print("essentially principal anyway:", ep)
