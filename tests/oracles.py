"""Brute-force oracles shared by several test modules."""


def bitransitive_by_brute_force(group) -> bool:
    """Every ordered pair of distinct points reaches every other."""
    n = group.n
    pairs = [(i1, i2) for i1 in range(1, n + 1) for i2 in range(1, n + 1) if i1 != i2]
    for i1, i2 in pairs:
        reached = {(s(i1), s(i2)) for s in group}
        if any(p not in reached for p in pairs):
            return False
    return True


def convolve_by_dict(f: dict, g: dict) -> dict:
    """Group-algebra convolution of {Permutation: Scalar} dicts straight
    from permutation products, zero values dropped."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            ab = a * b
            prod = fa * gb
            out[ab] = out[ab] + prod if ab in out else prod
    return {s: c for s, c in out.items() if c}


def inseparable_pairs(groupoid) -> list:
    """Every pair of group elements that agree on some edge, enumerated:
    (a, b) with a before b in group order."""
    els = groupoid.group.elements
    pairs = []
    for a in range(len(els)):
        for b in range(a + 1, len(els)):
            s, sp = els[a], els[b]
            if any(s(i) == sp(i) for i in range(1, groupoid.n + 1)):
                pairs.append((s, sp))
    return pairs
