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
