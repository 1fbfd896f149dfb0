#!/usr/bin/env python3
# The star with n >= 4 edges and the even-permutation action: any edge
# permutation tau, even an odd one outside the acting group, is implemented
# by a unitary u in the convolution algebra.  Its open support fails the
# bisection test that normalizers over Hausdorff groupoids always satisfy.

from germoid import (
    GermGroupoid,
    build_strange_normalizer,
    build_unitary_v,
    parse_cycles,
)
from germoid.perms import PermGroup

n = 4
tau = parse_cycles("(1 2)", n)
print(f"target permutation tau = {tau} (odd, so outside the alternating group)")

# Step 1: in the group algebra of the alternating group, the integrated
# permutation representation still reaches the matrix of tau, because for
# n >= 4 its image is the full commutant of the {zI + y(J-I)} algebra.
v = build_unitary_v(PermGroup.alternating(n), tau)
print("\nv =", v)
# pi~(v) is read off v's pair sums: the numerators, over v's denominator,
# of the sums of v over the s with s(i) = j; pi(tau) is 1 at (i, tau(i))
tau_pattern = {(i, tau(i)): (v.d, 0) for i in range(1, n + 1)}
print("pi~(v) == pi(tau):", v.pair_sums() == tau_pattern)
print("v is unitary, exactly (verified inside the builder)")

# Step 2: pushing v into the convolution algebra yields u with the 0/1
# strip pattern of tau; the full pipeline re-verifies everything.
G = GermGroupoid.star(n)
trials = 10
u, report = build_strange_normalizer(G, tau, trials=trials, seed=0)
print("\nu strips match [tau(i) = j]:", report.strips_match_tau)
print("u* h u = h o tau for", trials, "random h:", report.conjugation_ok)

# The punchline: u normalizes the diagonal, but its open support packs
# several center germs with the same source and range.
print("\nopen support of u is a bisection:", report.bisection_flag)
print("center germs in the support:", len(report.center_support))
print("induced point map is the tau edge action:", report.point_map_is_tau)
print(
    "isotropy at the center has only",
    len(G.isotropy_description()),
    "non-unit classes (the even permutations), yet the point map realizes an odd one",
)

# For comparison, n = 3 genuinely obstructs: the commutant is too big and
# the odd permutation matrix falls outside the integrated image.
from germoid.rep import PreimageObstruction

try:
    build_unitary_v(PermGroup.alternating(3), parse_cycles("(1 2)", 3))
except PreimageObstruction as exc:
    print("\nn = 3:", exc)
