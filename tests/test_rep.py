from fractions import Fraction

import pytest

from germoid.algebra import AlgebraElement, embed_C0, is_bisection_support
from germoid.experiments import _pi_is_multiplicative, star_experiment
from germoid.germs import CenterGerm, EdgeGerm, GermGroupoid
from germoid.linalg import Matrix
from germoid.perms import PermGroup, Permutation, parse_cycles
import germoid.algebra
import germoid.rep
from germoid.rep import (
    GroupAlgebraElement,
    InternalCheckError,
    PreimageObstruction,
    _is_central,
    _is_kernel_projection,
    _is_unitary_lift,
    _kernel_part,
    build_strange_normalizer,
    build_unitary_v,
    commutant_basis,
    kernel_projection,
    min_norm_preimage,
    phi,
)
from germoid.sampling import random_group_algebra_element, random_ppfun, random_scalar
from germoid.scalars import ONE, ZERO, Scalar
from germoid.starspace import act
from oracles import (
    all_ones,
    bitransitive_by_brute_force,
    commutant_basis_by_rref,
    conj_transpose,
    fourier_preimage,
    induced_point_map,
    integrated_rep,
    is_central_by_deltas,
    is_kernel_projection_by_products,
    is_unitary_by_products,
    perm_rep,
    rank,
    rref_preimage,
)


def delta(group, s):
    return GroupAlgebraElement.delta(group, s)


# -- the permutation representation ------------------------------------------------

def test_perm_rep_examples():
    assert perm_rep(Permutation.identity(3)) == Matrix.identity(3)
    swap = parse_cycles("(1 2)", 2)
    assert perm_rep(swap) == Matrix([[ZERO, ONE], [ONE, ZERO]])


def test_perm_rep_moves_basis_vectors():
    s = parse_cycles("(1 2 3)", 4)
    m = perm_rep(s)
    for i in range(1, 5):
        col = [m[r, i - 1] for r in range(4)]
        assert col == [ONE if r + 1 == s(i) else ZERO for r in range(4)]


def test_perm_rep_is_multiplicative(rng):
    group = PermGroup.symmetric(4)
    for _ in range(25):
        s = rng.choice(group.elements)
        t = rng.choice(group.elements)
        assert perm_rep(s) * perm_rep(t) == perm_rep(s * t)
        assert conj_transpose(perm_rep(s)) * perm_rep(s) == Matrix.identity(4)


# -- the group algebra ---------------------------------------------------------------

def test_delta_multiplication():
    g = PermGroup.alternating(4)
    s = parse_cycles("(1 2 3)", 4)
    t = parse_cycles("(1 2 4)", 4)
    assert delta(g, s) * delta(g, t) == delta(g, s * t)
    assert delta(g, s).adjoint() == delta(g, s.inverse())
    assert delta(g, g.identity) * delta(g, s) == delta(g, s)


def test_group_algebra_associativity(rng):
    g = PermGroup.alternating(4)
    for _ in range(20):
        a = random_group_algebra_element(g, rng)
        b = random_group_algebra_element(g, rng)
        c = random_group_algebra_element(g, rng)
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_group_mismatch_rejected():
    a = delta(PermGroup.alternating(4), Permutation.identity(4))
    b = delta(PermGroup.symmetric(4), Permutation.identity(4))
    with pytest.raises(ValueError):
        a * b


# -- integration ----------------------------------------------------------------------

def test_integrated_rep_of_delta():
    g = PermGroup.alternating(4)
    t = parse_cycles("(1 2 3)", 4)
    assert integrated_rep(delta(g, t)) == perm_rep(t)


def test_integrated_rep_entries(rng):
    g = PermGroup.alternating(4)
    for _ in range(15):
        a = random_group_algebra_element(g, rng)
        m = integrated_rep(a)
        for i in range(1, 5):
            for j in range(1, 5):
                expected = ZERO
                for s, c in a.items():
                    if s(i) == j:
                        expected = expected + c
                assert m[j - 1, i - 1] == expected


def test_integrated_rep_is_a_star_homomorphism(rng):
    g = PermGroup.alternating(4)
    for _ in range(15):
        a = random_group_algebra_element(g, rng)
        b = random_group_algebra_element(g, rng)
        assert integrated_rep(a * b) == integrated_rep(a) * integrated_rep(b)
        assert integrated_rep(a.adjoint()) == conj_transpose(integrated_rep(a))


@pytest.mark.parametrize("group", [PermGroup.alternating(4), PermGroup.symmetric(4),
                                   PermGroup.klein_cross()], ids=["A4", "S4", "cross"])
def test_the_sparse_integration_check_agrees_with_matrix_products(group, rng):
    # the selftest's pi(ab) = pi(a) pi(b) on pair-sum dicts, against Matrix
    # products, for the true product and for products pushed off it
    i = GroupAlgebraElement.unit(group).scale(Scalar(0, 1))
    verdicts = []
    for _ in range(15):
        a = random_group_algebra_element(group, rng)
        b = random_group_algebra_element(group, rng)
        ab = a * b
        expected = integrated_rep(a) * integrated_rep(b)
        s = delta(group, rng.choice(group.elements))
        for c in (ab, ab + i, ab - s, ab + s.scale(Scalar(0, 2)), ab.scale(2), a.scale(0) * b):
            verdict = _pi_is_multiplicative(a, b, c)
            assert verdict == (integrated_rep(c) == expected)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 60


# -- commutants ------------------------------------------------------------------------

def _pair_orbit_count(group):
    """Independent oracle: the commutant dimension of a permutation action
    equals the number of orbits on ordered pairs."""
    n = group.n
    pairs = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    seen = set()
    orbits = 0
    for p in sorted(pairs):
        if p in seen:
            continue
        orbits += 1
        for s in group:
            seen.add((s(p[0]), s(p[1])))
    return orbits


@pytest.mark.parametrize("n", [4, 5])
def test_commutant_of_alternating_action(n):
    group = PermGroup.alternating(n)
    basis, dim = commutant_basis([perm_rep(s) for s in group])
    assert dim == 2 == _pair_orbit_count(group)
    ident = Matrix.identity(n)
    offdiag = all_ones(n) - ident
    assert basis == [ident, offdiag]
    for b in basis:
        for s in group:
            assert b * perm_rep(s) == perm_rep(s) * b


@pytest.mark.parametrize("group", [
    PermGroup.alternating(3),
    PermGroup.alternating(4),
    PermGroup.alternating(5),
    PermGroup.alternating(6),
    PermGroup.symmetric(4),
    PermGroup.cyclic(5),
    PermGroup.klein_cross(),
    PermGroup.trivial(3),
], ids=repr)
def test_generators_span_the_whole_commutant(group):
    gens = group.generators or (group.identity,)
    assert commutant_basis([perm_rep(s) for s in gens]) == commutant_basis(
        [perm_rep(s) for s in group]
    )


def _generated(n, *cycles):
    return PermGroup.generate(n, [parse_cycles(c, n) for c in cycles])


@pytest.mark.parametrize("group", [
    *(PermGroup.alternating(n) for n in range(2, 8)),
    *(PermGroup.symmetric(n) for n in range(2, 6)),
    PermGroup.klein_cross(),
    PermGroup.cyclic(5),
    PermGroup.trivial(3),
    _generated(5, "(1 2 3 4 5)", "(2 5)(3 4)"),   # D5
    _generated(5, "(1 2)", "(3 4 5)"),
    _generated(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)"),
], ids=repr)
def test_orbital_commutant_equals_the_rref_basis(group):
    mats = [perm_rep(s) for s in group.generators or (group.identity,)]
    basis, dim = commutant_basis(mats)
    assert (basis, dim) == commutant_basis_by_rref(mats)
    # Burnside's closed form counts the orbits on cells that the walk finds
    assert group.orbital_count == dim


def test_commutant_basis_refuses_other_matrices():
    with pytest.raises(ValueError, match="permutation matrices"):
        commutant_basis([Matrix.identity(2) + Matrix.identity(2)])
    with pytest.raises(ValueError, match="permutation matrices"):
        commutant_basis([all_ones(2)])


def test_commutant_of_identity_is_everything():
    _, dim = commutant_basis([Matrix.identity(3)])
    assert dim == 9


def test_commutant_of_a3_is_three_dimensional():
    group = PermGroup.alternating(3)
    _, dim = commutant_basis([perm_rep(s) for s in group])
    assert dim == 3 == _pair_orbit_count(group)


def test_double_commutant_dimensions():
    # the spans of the two integrated algebras agree for n >= 4, not for n = 3
    for n, equal in ((3, False), (4, True), (5, True)):
        ra = rank([perm_rep(s).vec() for s in PermGroup.alternating(n)])
        rs = rank([perm_rep(s).vec() for s in PermGroup.symmetric(n)])
        assert (ra == rs) is equal
        if equal:
            assert ra == 1 + (n - 1) ** 2
    # and for n = 4 the two actions share one commutant, the z/y algebra
    basis_a, _ = commutant_basis([perm_rep(s) for s in PermGroup.alternating(4)])
    basis_s, _ = commutant_basis([perm_rep(s) for s in PermGroup.symmetric(4)])
    assert basis_a == basis_s == [Matrix.identity(4), all_ones(4) - Matrix.identity(4)]


# -- bi-transitivity ---------------------------------------------------------------------

def test_bitransitivity():
    assert bitransitive_by_brute_force(PermGroup.alternating(4)) is True
    assert bitransitive_by_brute_force(PermGroup.alternating(5)) is True
    assert bitransitive_by_brute_force(PermGroup.alternating(3)) is False
    assert bitransitive_by_brute_force(PermGroup.trivial(2)) is False
    # brute force over ordered pairs: S2 reaches both pairs, so it passes
    assert bitransitive_by_brute_force(PermGroup.symmetric(2)) is True


@pytest.mark.parametrize("group", [
    PermGroup.alternating(3),
    PermGroup.alternating(4),
    PermGroup.alternating(5),
    PermGroup.alternating(6),
    PermGroup.symmetric(2),
    PermGroup.symmetric(4),
    PermGroup.trivial(2),
    PermGroup.trivial(3),
    PermGroup.cyclic(4),
    PermGroup.cyclic(5),
    PermGroup.klein_cross(),
], ids=repr)
def test_burnside_count_agrees_with_brute_force(group):
    assert group.is_two_transitive is bitransitive_by_brute_force(group)


# -- minimum-norm preimages ---------------------------------------------------------------
# min_norm_preimage takes a permutation tau; its Horner step is the one of
# _kernel_part, whose a - p a is the minimum-norm preimage of pi(a) for any
# complex a, so general inputs are checked through _kernel_part

def test_min_norm_preimage_roundtrip(rng):
    group = PermGroup.alternating(4)
    for _ in range(10):
        a = random_group_algebra_element(group, rng)
        assert integrated_rep(a - _kernel_part(a)) == integrated_rep(a)


def test_min_norm_preimage_is_the_orthogonal_one(rng):
    group = PermGroup.alternating(4)
    p = kernel_projection(group)
    for _ in range(8):
        a = random_group_algebra_element(group, rng)
        # the kernel component of a is p a, so the preimage a - p a is
        # orthogonal to the kernel
        assert _kernel_part(a) == p * a


def test_min_norm_preimage_refuses_tau_on_other_points():
    group = PermGroup.alternating(4)
    # one point would broadcast against every image row
    for tau in (Permutation.identity(1), parse_cycles("(1 2)", 5)):
        with pytest.raises(ValueError, match="wrong number of points"):
            min_norm_preimage(group, tau)
        with pytest.raises(ValueError, match="wrong number of points"):
            build_unitary_v(group, tau)


def test_obstruction_for_small_n():
    # A3 acts regularly on 3 points, so its image holds only the circulants
    group = PermGroup.alternating(3)
    with pytest.raises(PreimageObstruction):
        min_norm_preimage(group, parse_cycles("(1 2)", 3))


def test_a_horner_result_off_the_pattern_of_tau_is_refused(monkeypatch):
    # the pattern check is what raises: a doubled Horner result misses pi(tau)
    # on A5, where every tau lifts
    real = germoid.rep._chi_polynomial
    monkeypatch.setattr(germoid.rep, "_chi_polynomial", lambda *args: real(*args).scale(2))
    with pytest.raises(PreimageObstruction):
        min_norm_preimage(PermGroup.alternating(5), parse_cycles("(1 2)", 5))


# 2-transitive groups against the rref oracle

@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("cycles", ["(1 2)", "(1 2 3)", "()"])
def test_closed_form_preimage_matches_rref_oracle(n, cycles):
    group = PermGroup.alternating(n)
    assert group.is_two_transitive
    tau = parse_cycles(cycles, n)
    assert min_norm_preimage(group, tau) == rref_preimage(perm_rep(tau), group)


@pytest.mark.parametrize("group, samples", [
    (PermGroup.symmetric(4), 6),
    (PermGroup.alternating(5), 2),
], ids=repr)
def test_closed_form_preimage_of_random_complex_targets(group, samples, rng):
    for _ in range(samples):
        a = random_group_algebra_element(group, rng)
        assert a - _kernel_part(a) == rref_preimage(integrated_rep(a), group)


@pytest.mark.parametrize("group", [
    PermGroup.alternating(3), PermGroup.klein_cross(), PermGroup.cyclic(4)
], ids=repr)
def test_generator_preimage_matches_rref_oracle(group):
    assert not group.is_two_transitive
    tau = group.generators[0]
    assert min_norm_preimage(group, tau) == rref_preimage(perm_rep(tau), group)
    kernel_projection(group)


def _five_terms(group, rng):
    """A group-algebra element drawn as the sampler draws its three terms,
    with five: each term's value, then its group element."""
    coeffs = {}
    for _ in range(5):
        c = random_scalar(rng)
        coeffs[rng.choice(group.elements)] = c
    return GroupAlgebraElement(group, coeffs)


@pytest.mark.parametrize("group", [
    _generated(6, "(1 2 3)", "(1 4)(2 5)(3 6)"),   # C3 wr C2, order 18
    _generated(6, "(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"),   # S3 x S3, order 36
], ids=lambda g: f"order {len(g)} on {g.n} points")
def test_preimage_of_random_and_generator_targets_matches_rref_oracle(group, rng):
    assert not group.is_two_transitive
    for _ in range(3):
        a = _five_terms(group, rng)
        assert a - _kernel_part(a) == rref_preimage(integrated_rep(a), group)
    for tau in (*group.generators, group.identity):
        assert min_norm_preimage(group, tau) == rref_preimage(perm_rep(tau), group)


def test_preimage_past_the_reach_of_the_rref_oracle(rng):
    # S4 x S4 on 8 points: 576 columns, which the |G|-column oracle cannot
    # reduce in reasonable time; checked against p a instead
    group = _generated(8, "(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)")
    assert len(group) == 576 and not group.is_two_transitive
    p = kernel_projection(group)
    for _ in range(3):
        a = random_group_algebra_element(group, rng)
        assert _kernel_part(a) == p * a


def test_klein_cross_preimage_rejects_a_target_outside_the_image():
    # every element of the Klein cross fixes 1 iff it fixes 2, so the image
    # has equal (1, 1) and (2, 2) entries and misses pi((2 3))
    with pytest.raises(PreimageObstruction):
        min_norm_preimage(PermGroup.klein_cross(), parse_cycles("(2 3)", 4))


def _dihedral(n):
    """The symmetries of an n-gon, of order 2n, on its n vertices."""
    rotation = Permutation([i % n + 1 for i in range(1, n + 1)])
    reflection = Permutation([-i % n + 1 for i in range(n)])
    return PermGroup.generate(n, [rotation, reflection])


# every tau on the group's points, against the rref oracle (the Fourier
# formula on A5, past the oracle's reach); tau lifts exactly when pi(tau)
# is in the image, so the sweep covers every input on these groups
@pytest.mark.parametrize("group, lifted, oracle", [
    pytest.param(PermGroup.alternating(3), 3, rref_preimage, id="A3"),
    pytest.param(PermGroup.alternating(4), 24, rref_preimage, id="A4"),
    pytest.param(PermGroup.symmetric(4), 24, rref_preimage, id="S4"),
    pytest.param(PermGroup.alternating(5), 120, fourier_preimage, id="A5"),
    pytest.param(PermGroup.klein_cross(), 4, rref_preimage, id="Klein cross"),
    pytest.param(PermGroup.cyclic(4), 4, rref_preimage, id="Z4"),
    pytest.param(PermGroup.cyclic(5), 5, rref_preimage, id="Z5"),
    pytest.param(_dihedral(5), 10, rref_preimage, id="D5"),
    pytest.param(_generated(5, "(1 2 3 4 5)", "(2 3 5 4)"), 120, rref_preimage, id="AGL(1,5)"),
])
def test_every_tau_preimage_matches_the_oracle(group, lifted, oracle):
    def preimage(solve, *args):
        try:
            return solve(*args)
        except PreimageObstruction:
            return None

    count = 0
    for tau in PermGroup.symmetric(group.n):
        x = preimage(min_norm_preimage, group, tau)
        assert x == preimage(oracle, perm_rep(tau), group), tau
        count += x is not None
    assert count == lifted


@pytest.mark.parametrize("group, roots", [
    pytest.param(PermGroup.alternating(3), {3}, id="A3"),
    pytest.param(PermGroup.alternating(5), {0, 15, 60}, id="A5"),
    pytest.param(PermGroup.alternating(7), {0, 420, 2520}, id="A7"),
    pytest.param(PermGroup.symmetric(4), {0, 8, 24}, id="S4"),
    pytest.param(_dihedral(12), {0, 12, 24}, id="D12"),
    pytest.param(_generated(9, "(1 2)", "(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)", "(1 4)(2 5)(3 6)"),
                 {0, 216, 648, 1296}, id="S3 wr S3"),
    pytest.param(PermGroup.cyclic(5), {5}, id="Z5"),
    pytest.param(_generated(3, "(1 2)"), {2, 4}, id="Z2 on 3 points"),
])
def test_chi_minimal_polynomial_has_the_roots_g_m_over_d(group, roots):
    # chi acts on the block of an irreducible of degree d and multiplicity m
    # in the permutation representation as |G| m / d, and as 0 on the
    # blocks the representation misses
    expected = [1]
    for r in roots:
        expected = [a - r * b for a, b in zip([0] + expected, expected + [0])]
    assert group.chi_minimal_polynomial == tuple(expected)


@pytest.mark.parametrize("group", [
    PermGroup.alternating(6), PermGroup.alternating(7), PermGroup.alternating(8),
    PermGroup.symmetric(5)
], ids=repr)
@pytest.mark.parametrize("cycles", ["(1 2)", "(1 2 3)", "()"])
def test_preimage_matches_the_fourier_formula(group, cycles):
    # past the reach of the |G|-column rref oracle; these groups are
    # 2-transitive, so the closed form applies
    tau = parse_cycles(cycles, group.n)
    assert min_norm_preimage(group, tau) == fourier_preimage(perm_rep(tau), group)


def test_dihedral_group_on_100_points():
    # 100 points, the most a star may have: kernel_projection passes its
    # exact checks, and each generator's matrix has its preimage d - p d
    group = _dihedral(100)
    p = kernel_projection(group)
    assert not p.is_zero()
    for s in group.generators:
        x = min_norm_preimage(group, s)
        assert integrated_rep(x) == perm_rep(s)
        d = delta(group, s)
        assert x == d - p * d


def test_a_kernel_projection_from_a_doubled_preimage_is_refused(monkeypatch):
    real = germoid.rep.min_norm_preimage
    monkeypatch.setattr(germoid.rep, "min_norm_preimage", lambda g, t: real(g, t).scale(2))
    with pytest.raises(InternalCheckError, match="kernel projection"):
        kernel_projection(PermGroup.alternating(5))


def test_kernel_projection_properties():
    group = PermGroup.alternating(4)
    p = kernel_projection(group)
    assert p * p == p == p.adjoint()
    assert integrated_rep(p).is_zero()
    for s in group:
        d = GroupAlgebraElement.delta(group, s)
        assert p * d == d * p
    assert not p.is_zero()  # the kernel is nontrivial for the 4-point action


@pytest.mark.parametrize("group", [
    PermGroup.alternating(3),
    PermGroup.alternating(4),
    PermGroup.alternating(5),
    PermGroup.alternating(6),
    PermGroup.symmetric(4),
    PermGroup.klein_cross(),
    PermGroup.cyclic(5),
    PermGroup.trivial(3),
], ids=repr)
def test_generator_centrality_matches_all_elements(group, rng):
    def central_on_all(x):
        return all(x * delta(group, s) == delta(group, s) * x for s in group)

    p = kernel_projection(group)
    assert _is_central(p) and central_on_all(p) and is_central_by_deltas(p)
    samples = [delta(group, s) for s in group.elements[:24]]
    samples += [random_group_algebra_element(group, rng) for _ in range(3)]
    for x in samples:
        assert _is_central(x) == central_on_all(x) == is_central_by_deltas(x)
    if not group.generators:
        assert _is_central(GroupAlgebraElement.unit(group))  # vacuous on a trivial group


def _one_per_cycle_type(n):
    """One permutation of 1..n per cycle type, as consecutive cycles."""
    def partitions(m, top):
        if m == 0:
            yield ()
        for k in range(min(m, top), 0, -1):
            for rest in partitions(m - k, k):
                yield (k, *rest)

    out = []
    for parts in partitions(n, n):
        images, start = [], 1
        for k in parts:
            images += [*range(start + 1, start + k), start]
            start += k
        out.append(Permutation(images))
    return out


# the pipeline commutes with relabelling the points, so on A_n and S_n, which
# S_n normalizes, one tau per cycle type decides every tau; the two groups on
# 6 points are normalized by less, so there every tau is tried
@pytest.mark.parametrize("group, taus", [
    *(pytest.param(PermGroup.alternating(n), _one_per_cycle_type(n), id=f"A{n}")
      for n in range(4, 8)),
    *(pytest.param(PermGroup.symmetric(n), _one_per_cycle_type(n), id=f"S{n}") for n in (4, 5)),
    pytest.param(_generated(6, "(1 2 3)", "(1 2 4)"), PermGroup.symmetric(6).elements,
                 id="A4 on 4 of 6 points"),
    pytest.param(_generated(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)"), PermGroup.symmetric(6).elements,
                 id="order 12 on 6 points, no kernel"),
])
def test_table_free_checks_agree_with_the_dense_products(group, taus):
    p = kernel_projection(group)  # its table-free checks raise on failure
    unit = GroupAlgebraElement.unit(group)
    # twice p is in the kernel, self-adjoint and central, but not idempotent
    for x, verdict in ((p, True), (p.scale(2), p.is_zero()), (p + unit, False)):
        assert _is_kernel_projection(x) is is_kernel_projection_by_products(x) is verdict
    assert _is_central(p) and is_central_by_deltas(p)
    G = GermGroupoid(group.n, group)
    lifted = 0
    for tau in taus:
        try:
            v = build_unitary_v(group, tau)
        except PreimageObstruction:
            continue
        lifted += 1
        # doubling the p-part keeps pi(v) but breaks unitarity, unless p = 0
        for w, unitary in ((v, True), (v + p, p.is_zero())):
            assert integrated_rep(w) == perm_rep(tau)
            assert _is_unitary_lift(w, p) is is_unitary_by_products(w) is unitary
            assert is_unitary_by_products(phi(w, G)) is unitary
    assert lifted > 0


def test_centrality_without_recorded_generators_checks_every_element():
    full = PermGroup.symmetric(4)
    bare = PermGroup(4, full.elements)
    x = delta(bare, parse_cycles("(1 2)", 4))
    assert not bare.generators and not _is_central(x) and not is_central_by_deltas(x)
    assert _is_central(kernel_projection(bare))


# -- the constructive unitary ----------------------------------------------------------------

def test_build_unitary_v_for_a_transposition():
    group = PermGroup.alternating(4)
    tau = parse_cycles("(1 2)", 4)
    v = build_unitary_v(group, tau)
    unit = GroupAlgebraElement.unit(group)
    assert v.adjoint() * v == unit
    assert v * v.adjoint() == unit
    assert integrated_rep(v) == perm_rep(tau)
    assert len(v) >= 2


def test_build_unitary_v_identity_target():
    group = PermGroup.alternating(4)
    v = build_unitary_v(group, Permutation.identity(4))
    assert v == GroupAlgebraElement.unit(group)


def test_build_unitary_v_obstructed():
    with pytest.raises(PreimageObstruction):
        build_unitary_v(PermGroup.alternating(3), parse_cycles("(1 2)", 3))


# -- integration into the groupoid algebra ------------------------------------------------------

def test_phi_of_delta_is_the_sheet(rng):
    G = GermGroupoid.star(4)
    s = parse_cycles("(1 2 3)", 4)
    from germoid.algebra import from_sheet

    assert phi(delta(G.group, s), G) == from_sheet(G, s, 1)


def test_phi_matches_matrix_entries(rng):
    G = GermGroupoid.star(4)
    for _ in range(100):
        a = random_group_algebra_element(G.group, rng)
        u = phi(a, G)
        m = integrated_rep(a)
        t = Fraction(rng.randint(1, 16), 16)
        for i in range(1, 5):
            for j in range(1, 5):
                assert u.evaluate(EdgeGerm(t, i, j)) == m[j - 1, i - 1]
        for s in G.group:
            assert u.evaluate(CenterGerm(s)) == a.coeff(s)


def test_phi_is_multiplicative(rng):
    G = GermGroupoid.star(4)
    for _ in range(10):
        a = random_group_algebra_element(G.group, rng)
        b = random_group_algebra_element(G.group, rng)
        assert phi(a * b, G) == phi(a, G) * phi(b, G)
        assert phi(a.adjoint(), G) == phi(a, G).adjoint()


# -- the full pipeline ----------------------------------------------------------------------------

def test_strange_normalizer_for_odd_tau():
    tau = parse_cycles("(1 2)", 4)
    G = GermGroupoid.star(4)
    u, report = build_strange_normalizer(G, tau, trials=5, seed=11)
    assert not report.tau_in_group
    assert report.strips_match_tau
    assert report.conjugation_ok
    assert report.bisection_flag is False
    assert report.bisection_witness[0] == "center"
    assert len(report.bisection_witness[1]) >= 2
    assert report.point_map_is_tau
    assert report.ok
    # the groupoid facts the paper pairs with it
    assert G.essentially_principal_check()[0]
    assert len(G.isotropy_description()) == 11


def test_strange_normalizer_conjugation_identity(rng):
    G = GermGroupoid.star(4)
    tau = parse_cycles("(1 2)", 4)
    u, _ = build_strange_normalizer(GermGroupoid.star(4), tau, trials=2, seed=1)
    for _ in range(5):
        h = random_ppfun(4, rng)
        assert u.adjoint() * embed_C0(G, h) * u == embed_C0(G, act(tau.inverse(), h))


def test_the_conjugation_check_fails_when_h_is_not_moved(monkeypatch):
    # with act the identity the trial compares h u with u h, which differ
    # for the odd tau (1 2) on A4, while the strips and point map still check
    monkeypatch.setattr(germoid.rep, "act", lambda sigma, h: h)
    tau = parse_cycles("(1 2)", 4)
    _, report = build_strange_normalizer(GermGroupoid.star(4), tau, trials=3, seed=1)
    assert report.strips_match_tau and report.point_map_is_tau
    assert report.conjugation_ok is False
    assert report.ok is False
    assert star_experiment(4, tau, trials=2, seed=1).exit_code == 1


def test_no_conjugation_trial_takes_a_two_sided_center_product(monkeypatch):
    """Each trial's center products have the one-element operand h(0) delta_e,
    and unitarity is checked without products, so no run takes a product of
    two operands with >= 2 terms."""
    real = germoid.algebra.group_convolve
    two_sided = []

    def counting(f, g):
        if len(f.positions) >= 2 and len(g.positions) >= 2:
            two_sided.append((len(f.positions), len(g.positions)))
        return real(f, g)

    monkeypatch.setattr(germoid.algebra, "group_convolve", counting)
    counts = []
    for trials in (2, 8):
        two_sided.clear()
        report = star_experiment(4, parse_cycles("(1 2)", 4), trials=trials, seed=3)
        assert report.exit_code == 0
        counts.append(len(two_sided))
    assert counts == [0, 0]


def test_strange_normalizer_even_tau_runs():
    tau = parse_cycles("(1 2 3)", 4)
    u, report = build_strange_normalizer(GermGroupoid.star(4), tau, trials=3, seed=5)
    assert report.tau_in_group and report.strips_match_tau and report.conjugation_ok
    assert report.ok
    # and a Klein-four element lifts to its own sheet indicator exactly
    tau2 = parse_cycles("(1 2)(3 4)", 4)
    u2, _ = build_strange_normalizer(GermGroupoid.star(4), tau2, trials=2, seed=5)
    from germoid.algebra import from_sheet

    G = GermGroupoid.star(4)
    assert u2 == from_sheet(G, tau2, 1)
    assert is_bisection_support(u2)[0] is True


def test_strange_normalizer_identity_tau():
    u, report = build_strange_normalizer(
        GermGroupoid.star(4), Permutation.identity(4), trials=2, seed=0
    )
    G = GermGroupoid.star(4)
    assert u == AlgebraElement.unit(G)
    assert report.ok


def test_strange_normalizer_point_map_matches_the_checked_one():
    tau = parse_cycles("(1 2)", 5)
    u, report = build_strange_normalizer(GermGroupoid.star(5), tau, trials=1, seed=2)
    assert report.point_map == induced_point_map(u)


def test_strange_normalizer_rejects_a_non_unitary_lift(monkeypatch):
    from germoid.rep import InternalCheckError
    from germoid.scalars import Scalar

    draws = []
    real_phi = germoid.rep.phi
    monkeypatch.setattr(germoid.rep, "phi", lambda v, G: real_phi(v, G).scale(Scalar(2)))
    monkeypatch.setattr(germoid.rep, "random_ppfun", lambda *args: draws.append(args))
    with pytest.raises(InternalCheckError):
        build_strange_normalizer(GermGroupoid.star(4), parse_cycles("(1 2)", 4), trials=1, seed=0)
    assert draws == []  # unitarity is checked before any conjugation trial


def test_strange_normalizer_small_n_rejected():
    # (1 2) is not in the span of A3's permutation matrices
    with pytest.raises(PreimageObstruction):
        build_strange_normalizer(GermGroupoid.star(3), parse_cycles("(1 2)", 3))


# -- the builder beyond the alternating stars ------------------------------------------------

def test_strange_normalizer_on_the_symmetric_star_of_three_edges():
    G = GermGroupoid(3, PermGroup.symmetric(3))
    u, report = build_strange_normalizer(G, parse_cycles("(1 2)", 3), trials=3, seed=1)
    assert report.tau_in_group and report.ok


def test_strange_normalizer_on_s4_has_twenty_center_values():
    G = GermGroupoid(4, PermGroup.symmetric(4))
    u, report = build_strange_normalizer(G, parse_cycles("(1 2)", 4), trials=3, seed=1)
    assert report.tau_in_group and report.ok
    assert report.bisection_flag is False
    assert len(report.center_support) == 20


def test_strange_normalizer_for_tau_outside_agl_1_5():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 3 5 4)", 5)]
    G = GermGroupoid(5, PermGroup.generate(5, gens))
    assert len(G.group) == 20
    u, report = build_strange_normalizer(G, parse_cycles("(1 2)", 5), trials=3, seed=1)
    assert not report.tau_in_group and report.ok
    assert report.bisection_flag is False
    assert len(report.center_support) >= 2


def test_strange_normalizer_for_a_three_cycle_in_a3():
    G = GermGroupoid.star(3)
    u, report = build_strange_normalizer(G, parse_cycles("(1 2 3)", 3), trials=3, seed=1)
    assert report.tau_in_group and report.ok
