#!/usr/bin/env python3
# When is the germ groupoid of a star action Hausdorff?  Exactly when the
# group acts freely on the edges: two group elements that agree on some edge
# have center germs that no pair of open sets can separate, because the edge
# germs (t, i, j) converge to both as t -> 0.

from germoid import GermGroupoid
from germoid.germs import parse_star_spec
from germoid.perms import PermGroup


def diagnose(name, G):
    # inseparable pairs are {s, s g} with g a non-identity element fixing an
    # edge, so they are counted, not listed; the first few serve as witnesses
    result = G.hausdorff_check()
    ep, _ = G.essentially_principal_check()
    print(f"\n{name}  (n={G.n}, group order {len(G.group)})")
    print(f"  hausdorff:             {result.hausdorff}")
    print(f"  essentially principal: {ep}")
    if result.count:
        shown = ", ".join(f"{{{a}, {b}}}" for a, b in result.witnesses[:4])
        more = " ..." if result.count > 4 else ""
        print(f"  inseparable pairs:     {result.count}: {shown}{more}")


# The axis-reflection cross: (1 2) fixes edges 3 and 4, so its germ cannot
# be separated from the identity's.
diagnose("cross", GermGroupoid.cross())

# The alternating star: 3-cycles fix an edge, so again non-Hausdorff.
diagnose("alternating star", GermGroupoid.star(4))

# A cyclic shift moves every edge: a free action, hence Hausdorff.
diagnose("cyclic star", GermGroupoid.cyclic_star(4))

# The same diagnostics drive the `germoid diagnose` subcommand; specs are
# plain JSON.
spec = {"n": 5, "generators": ["(1 2 3 4 5)"]}
diagnose("from a JSON spec", parse_star_spec(spec))

# Counting scales to the largest star group the package accepts: A7 has
# 2520 elements and about two million inseparable pairs.
diagnose("alternating star on 7 edges", GermGroupoid.star(7))

# Isotropy at the center is always the whole group minus the identity;
# what changes between these examples is only how it sits topologically.
G = GermGroupoid.star(4)
print("\nnon-unit isotropy classes on the alternating star:", len(G.isotropy_description()))
