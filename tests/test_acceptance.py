"""Acceptance suite: one test per criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
every identity here is exact unless the line carries an explicit tolerance.
"""

import random
import time
from fractions import Fraction

from germoid.algebra import (
    cross_central_element,
    cross_generators,
    embed_C0,
    evaluate_convolution_pointwise,
    has_nonunit_value,
    is_bisection_support,
    verify_central_ideal,
)
from germoid.finite import (
    TOL,
    FiniteGroupoid,
    diagonal_masa_check,
    faithfulness_check,
    intersection_property_check,
    key_inequality_check,
    principality,
)
from germoid.germs import CenterGerm, EdgeGerm, GermGroupoid
from germoid.linalg import Matrix
from germoid.perms import PermGroup, parse_cycles
from germoid.rep import (
    GroupAlgebraElement,
    build_strange_normalizer,
    build_unitary_v,
    commutant_basis,
    phi,
)
from germoid.sampling import (
    random_algebra_element,
    random_germ,
    random_group_algebra_element,
    random_ppfun,
)
from germoid.scalars import Scalar
from germoid.starspace import act
from oracles import all_ones, bitransitive_by_brute_force, integrated_rep, perm_rep

SEED = 1729


def verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_central_identity_for_two_hundred_elements():
    started = time.monotonic()
    rng = random.Random(SEED)
    G = GermGroupoid.cross()
    f = cross_central_element(G)

    ident = G.group.identity
    sx, sy = parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)
    table_ok = (
        f.evaluate(CenterGerm(ident)) == Scalar(1)
        and f.evaluate(CenterGerm(sx)) == Scalar(-1)
        and f.evaluate(CenterGerm(sy)) == Scalar(-1)
        and f.evaluate(CenterGerm(sx * sy)) == Scalar(1)
        and not f.strips
    )

    tests = cross_generators(G) + [
        random_algebra_element(G, rng, sheets=3) for _ in range(200)
    ]
    report = verify_central_ideal(f, tests)
    elapsed = time.monotonic() - started
    verdict(
        1,
        table_ok and report.all_commute and elapsed < 5.0,
        f"g*f = f*g = lambda(g) f exactly for {len(tests)} elements, value table "
        f"(1,-1,-1,1), in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_one_dimensional_ideal_missing_the_diagonal():
    rng = random.Random(SEED + 1)
    G = GermGroupoid.cross()
    f = cross_central_element(G)
    tests = cross_generators(G) + [
        random_algebra_element(G, rng, sheets=3) for _ in range(50)
    ]
    report = verify_central_ideal(f, tests)
    closed = report.all_commute  # both products land in the span of f, exactly
    verdict(
        2,
        closed and report.not_in_C0 and report.span_meets_diagonal_trivially,
        "span{f} is a two-sided ideal, f is not a unit-space function, and "
        "span{f} meets the diagonal only in 0",
    )


def test_criterion_03_masa_failure():
    rng = random.Random(SEED + 2)
    G = GermGroupoid.cross()
    f = cross_central_element(G)
    commutes = all(
        (lambda e: f * e == e * f)(embed_C0(G, random_ppfun(4, rng)))
        for _ in range(100)
    )
    verdict(
        3,
        commutes and has_nonunit_value(f),
        "f commutes with 100 random diagonal elements yet is not diagonal",
    )


def test_criterion_04_commutant_dimension_and_bitransitivity():
    ok = True
    for n in (4, 5):
        group = PermGroup.alternating(n)
        basis, dim = commutant_basis([perm_rep(s) for s in group])
        ok = ok and dim == 2 and basis == [Matrix.identity(n), all_ones(n) - Matrix.identity(n)]
    bt = (
        bitransitive_by_brute_force(PermGroup.alternating(4))
        and bitransitive_by_brute_force(PermGroup.alternating(5))
        and not bitransitive_by_brute_force(PermGroup.alternating(3))
    )
    verdict(
        4,
        ok and bt,
        "commutant is exactly {zI + y(J-I)} for n=4,5; bi-transitivity holds "
        "for n>=4 and fails for n=3",
    )


def test_criterion_05_constructive_unitary_and_conjugation():
    rng = random.Random(SEED + 3)
    n, tau = 4, parse_cycles("(1 2)", 4)
    group = PermGroup.alternating(n)
    v = build_unitary_v(group, tau)
    unit = GroupAlgebraElement.unit(group)
    v_ok = (
        v.adjoint() * v == unit
        and v * v.adjoint() == unit
        and integrated_rep(v) == perm_rep(tau)
    )
    G = GermGroupoid.star(n)
    u = phi(v, G)
    strips_ok = all(
        u.evaluate(EdgeGerm(Fraction(1, 3), i, j))
        == (Scalar(1) if tau(i) == j else Scalar(0))
        for i in range(1, 5)
        for j in range(1, 5)
    )
    conj_ok = True
    for _ in range(50):
        h = random_ppfun(n, rng)
        if u.adjoint() * embed_C0(G, h) * u != embed_C0(G, act(tau.inverse(), h)):
            conj_ok = False
    verdict(
        5,
        v_ok and strips_ok and conj_ok,
        "v is unitary with pi~(v) = pi(tau) at zero tolerance; u has the 0/1 "
        "strips of tau; u* h u = h o tau exactly for 50 random h",
    )


def test_criterion_06_support_is_not_a_bisection():
    G = GermGroupoid.star(4)
    u, _ = build_strange_normalizer(G, parse_cycles("(1 2)", 4), trials=3, seed=SEED)
    flag, witness = is_bisection_support(u)
    verdict(
        6,
        (not flag)
        and witness[0] == "center"
        and len(witness[1]) >= 2
        and G.essentially_principal_check()[0],
        "the open support of u fails the bisection test with >= 2 center values "
        "while the groupoid stays essentially principal",
    )


def test_criterion_07_matrix_entry_identity():
    rng = random.Random(SEED + 4)
    G = GermGroupoid.star(4)
    ok = True
    for _ in range(100):
        a = random_group_algebra_element(G.group, rng)
        m = integrated_rep(a)
        u = phi(a, G)
        t = Fraction(rng.randint(1, 40), 40)
        for i in range(1, 5):
            for j in range(1, 5):
                if u.evaluate(EdgeGerm(t, i, j)) != m[j - 1, i - 1]:
                    ok = False
    verdict(7, ok, "sheet sums match integrated matrix entries for 100 random "
                   "elements at random coordinates, exactly")


def test_criterion_08_algebra_laws_and_pointwise_oracle():
    rng = random.Random(SEED + 5)
    G = GermGroupoid.star(4)
    failures = 0
    samples = 0
    for _ in range(12):
        a = random_algebra_element(G, rng, sheets=2)
        b = random_algebra_element(G, rng, sheets=2)
        c = random_algebra_element(G, rng, sheets=2)
        if (a * b) * c != a * (b * c):
            failures += 1
        if (a * b).adjoint() != b.adjoint() * a.adjoint():
            failures += 1
        for x in (a + b, a * b, a.adjoint() * c, (a * b).adjoint()):
            x.check_compatible()
        ab = a * b
        for _ in range(45):
            g = random_germ(G, rng)
            samples += 1
            if ab.evaluate(g) != evaluate_convolution_pointwise(a, b, g):
                failures += 1
    verdict(
        8,
        failures == 0 and samples >= 500,
        f"associativity, involution, compatibility preservation, and "
        f"{samples} pointwise convolution samples: zero failures",
    )


def test_criterion_09_finite_controls():
    started = time.monotonic()
    z3 = FiniteGroupoid.transformation(3, PermGroup.cyclic(3))
    eq4 = FiniteGroupoid.full_equivalence(4)
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    neg = FiniteGroupoid.trivial_action(1, z2)

    pos_ok = True
    for G in (z3, eq4):
        pos_ok = (
            pos_ok
            and intersection_property_check(G, seed=SEED).holds
            and faithfulness_check(G, seed=SEED).holds
            and diagonal_masa_check(G).is_masa
        )
    neg_ok = (
        not intersection_property_check(neg, seed=SEED).holds
        and not faithfulness_check(neg, seed=SEED).holds
        and not diagonal_masa_check(neg).is_masa
        and not principality(neg).principal
    )
    key = key_inequality_check(z3, trials=1000, seed=SEED)
    elapsed = time.monotonic() - started
    verdict(
        9,
        pos_ok and neg_ok and TOL == 1e-9 and key.holds and len(key.violations) == 0
        and elapsed < 30.0,
        f"positive controls pass and the point-isotropy control fails all three "
        f"properties; 1000-trial key inequality clean at 1e-9; {elapsed:.1f}s (< 30s)",
    )


def test_criterion_10_hausdorff_diagnostics():
    cross = GermGroupoid.cross().hausdorff_check()
    star = GermGroupoid.star(4).hausdorff_check()
    cyc = GermGroupoid.cyclic_star(4).hausdorff_check()
    verdict(
        10,
        (not cross.hausdorff)
        and len(cross.witnesses) > 0
        and (not star.hausdorff)
        and len(star.witnesses) > 0
        and cyc.hausdorff
        and cyc.witnesses == []
        and cyc.count == 0,
        "cross and alternating stars are non-Hausdorff with witnesses; the "
        "free cyclic star is Hausdorff",
    )
