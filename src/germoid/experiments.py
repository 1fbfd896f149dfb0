"""Named experiment pipelines behind the CLI.

Each experiment returns an ExperimentReport whose checks encode *expected*
verdicts: a counterexample behaving as predicted is a pass, and the small-n
regime is reported as a documented obstruction rather than a failure.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import chain

from . import algebra as alg
from .algebra import from_sheet
from .finite import (
    FiniteGroupoid,
    diagonal_masa_check,
    expectation_check,
    faithfulness_check,
    intersection_property_check,
    key_inequality_check,
    parse_finite_spec,
    principality,
)
from .germs import (
    CenterGerm,
    EdgeGerm,
    GermError,
    GermGroupoid,
    parse_star_spec,
    require_star_group_order,
)
from .perms import PermGroup, Permutation, parse_cycles
from .rep import (
    PreimageObstruction,
    build_strange_normalizer,
    build_unitary_v,
    integrated_rep,
    phi,
)
from .reports import ExperimentReport
from .sampling import (
    random_algebra_element,
    random_germ,
    random_group_algebra_element,
    random_group_element,
    random_open_set,
    random_ppfun,
)
from .scalars import Scalar
from .starspace import act

DEFAULT_SEED = 7


def _finish(report: ExperimentReport, started: float) -> ExperimentReport:
    report.wall_time_s = time.monotonic() - started
    return report


def _pair_strings(pairs):
    """Render inseparable pairs as "{a, b}"."""
    return [f"{{{a}, {b}}}" for a, b in pairs]


# ---------------------------------------------------------------------------
# the cross experiment


def cross_experiment(trials: int = 200, seed: int = DEFAULT_SEED) -> ExperimentReport:
    started = time.monotonic()
    report = ExperimentReport("cross", {"trials": trials}, seed=seed)
    rng = random.Random(seed)

    G = GermGroupoid.cross()
    f = alg.cross_central_element(G)
    group = list(G.group)
    # f's center values and the sheet indicators' scalars are both the signs
    signs = [Scalar(s) for s in G.group.signs]

    table = [(CenterGerm(s), v) for s, v in zip(group, signs)]
    report.exact(
        "center value table is (1,-1,-1,1)",
        all(f.evaluate(g) == v for g, v in table),
        witness=[str(f.evaluate(g)) for g, _ in table],
    )
    edge_samples = [
        EdgeGerm(Fraction(k, 7), i, j)
        for (i, j) in G.sorted_pairs
        for k in (1, 3, 7)
    ]
    report.exact(
        "vanishes at every edge germ",
        not f.strips and all(f.evaluate(g).is_zero() for g in edge_samples),
    )
    supp = alg.open_support(f)
    report.exact(
        "open support is exactly the four center germs",
        supp.strip_intervals == () and set(supp.center_support) == set(group),
        witness=str(supp),
    )

    gens = alg.cross_generators(G)
    lam_table = [alg.lambda_scalar(g) for g in gens]
    report.exact(
        "scalar table of the four sheet indicators is (1,-1,-1,1) in group order",
        lam_table == signs,
        witness=[str(x) for x in lam_table],
    )

    # drawn one at a time as the check reaches them: products draw nothing,
    # so the draws keep their order and only one trial is held at a time
    tests = chain(gens, (random_algebra_element(G, rng) for _ in range(trials)))
    ideal = alg.verify_central_ideal(f, tests)
    report.exact(
        f"g*f = f*g = lambda(g) f for {len(gens) + trials} elements",
        ideal.all_commute,
    )
    report.exact("f is not a unit-space function", ideal.not_in_C0)
    report.exact(
        "the line through f meets the diagonal only in 0",
        ideal.span_meets_diagonal_trivially,
    )
    report.exact("f*f = 4 f", f * f == f.scale(len(group)))

    ep_flag, ep_witnesses = G.essentially_principal_check()
    report.exact("essentially principal", ep_flag and not ep_witnesses)
    verdict = G.hausdorff_check()
    report.exact(
        "non-Hausdorff with inseparable center pairs",
        (not verdict.hausdorff) and verdict.count > 0,
        witness=_pair_strings(verdict.witnesses),
    )
    report.exact(
        "central element (exact serialized form)", True, witness=f.to_json_dict()
    )
    return _finish(report, started)


# ---------------------------------------------------------------------------
# the star experiment


def star_experiment(
    n: int, tau: Permutation, trials: int = 50, seed: int = DEFAULT_SEED
) -> ExperimentReport:
    started = time.monotonic()
    report = ExperimentReport(
        "star", {"n": n, "tau": tau.cycle_string(), "trials": trials}, seed=seed
    )
    if n < 2:
        raise ValueError("need at least 2 edges")
    require_star_group_order("A", n)

    group = PermGroup.alternating(n)
    # the orbitals span the commutant of the permutation representation, so
    # two of them (the diagonal and its complement) make it {I, J-I}
    orbitals = {"orbitals": group.orbital_count}

    if n >= 4:
        G = GermGroupoid(n, group)
        report.exact(
            "alternating action is bi-transitive", group.is_two_transitive, witness=orbitals
        )
        # u is unitary: the builder raises InternalCheckError otherwise
        u, norm_report = build_strange_normalizer(G, tau, trials=trials, seed=seed)
        report.exact(
            "strips are the 0/1 pattern of tau", norm_report.strips_match_tau
        )
        report.exact(
            f"u* h u = h o tau for {trials} random h (exact)",
            norm_report.conjugation_ok,
        )
        if not norm_report.tau_in_group:
            report.exact(
                "open support of u is not a bisection (odd tau)",
                not norm_report.bisection_flag
                and norm_report.bisection_witness is not None
                and norm_report.bisection_witness[0] == "center"
                and len(norm_report.bisection_witness[1]) >= 2,
                witness=str(norm_report.bisection_witness),
            )
        else:
            alt = from_sheet(G, tau, 1)
            alt_flag, _ = alg.is_bisection_support(alt)
            report.exact(
                "even tau: the sheet indicator of tau is a bisection normalizer",
                alt_flag,
                witness=(
                    "tau is even: the plain sheet indicator of tau is an alternative "
                    "normalizer whose open support is a bisection"
                ),
            )
        report.exact(
            "induced point map is the tau edge action fixing the center",
            norm_report.point_map_is_tau,
            witness=norm_report.point_map.to_json_dict(),
        )
        ep_flag, _ = G.essentially_principal_check()
        report.exact(
            "essentially principal while the center isotropy stays alternating",
            ep_flag and len(G.isotropy_description()) == len(group) - 1,
        )
        verdict = G.hausdorff_check()
        report.exact(
            "non-Hausdorff with inseparable center pairs",
            (not verdict.hausdorff) and verdict.count > 0,
        )
        report.inputs["center_support_size"] = len(norm_report.center_support)
        report.exact(
            "constructed normalizer (exact serialized form)",
            True,
            witness=u.to_json_dict(),
        )
    else:
        report.obstruction = (
            f"n={n} < 4: the commutant is bigger than the two-parameter algebra "
            f"and odd permutations need not lift"
        )
        report.exact(
            "bi-transitivity fails for n < 4 as documented",
            not group.is_two_transitive,
            witness=orbitals,
        )
        try:
            build_unitary_v(group, tau)
            # a tau in the acting group lifts to its own delta, so no obstruction there
            report.exact(
                "tau lifts anyway (tau is in the acting group's span)", tau in group
            )
        except PreimageObstruction as exc:
            report.exact(
                "preimage obstruction signalled for odd tau",
                tau not in group,
                witness=str(exc),
            )
    return _finish(report, started)


# ---------------------------------------------------------------------------
# diagnostics


def diagnose_experiment(spec: dict) -> ExperimentReport:
    started = time.monotonic()
    report = ExperimentReport("diagnose", {"spec": spec})
    G = parse_star_spec(spec)
    report.inputs["edges"] = G.n
    report.inputs["group_order"] = len(G.group)

    verdict = G.hausdorff_check()
    report.inputs["inseparable_pairs"] = verdict.count
    report.exact(
        f"hausdorff: {verdict.hausdorff}",
        True,
        witness=_pair_strings(verdict.witnesses) or None,
    )
    ep_flag, witnesses = G.essentially_principal_check()
    report.exact(
        "essentially principal",
        ep_flag,
        witness=[str(w) for w in witnesses] or None,
    )
    iso = G.isotropy_description()
    report.exact(
        f"non-unit isotropy classes at the center: {len(iso)}",
        len(iso) == len(G.group) - 1,
    )
    return _finish(report, started)


def finite_experiment(
    spec: dict, trials: int = 200, seed: int = DEFAULT_SEED
) -> ExperimentReport:
    started = time.monotonic()
    report = ExperimentReport("finite", {"spec": spec}, seed=seed)
    G = parse_finite_spec(spec)
    report.inputs["structure"] = G.describe()

    flags = principality(G)
    report.exact(
        f"principal: {flags.principal} (= essentially principal, discrete case)",
        flags.principal == (not flags.witnesses)
        and flags.principal == flags.essentially_principal,
        witness=[str(w) for w in flags.witnesses] or None,
    )

    masa = diagonal_masa_check(G)
    report.exact(
        f"diagonal is maximal abelian: {masa.is_masa}",
        masa.is_masa == flags.principal,
        witness={"commutant_dim": masa.commutant_dim, "units": masa.units},
    )

    # a minimal central block of a finite groupoid meets the diagonal exactly
    # when its orbit's isotropy is trivial, so the SVD verdict must agree
    # with principality
    inter = intersection_property_check(G, seed=seed)
    worst = max(inter.residuals.values())
    report.numeric(
        f"every minimal ideal meets the diagonal: {inter.holds}",
        inter.holds == flags.principal,
        worst,
        witness=[f"block {b.block} (sv_min={b.sv_min:.2e})" for b in inter.witnesses]
        or None,
    )

    faith = faithfulness_check(G, seed=seed)
    report.exact(
        "faithful-on-diagonal implies faithful agrees with the ideal check",
        faith.holds == inter.holds,
        witness={"kernels_checked": faith.kernels_checked},
    )

    key = key_inequality_check(G, trials=trials, seed=seed)
    report.numeric(
        f"|f(x)| <= ||f|| at the {key.units_tested} isotropy-free units "
        f"({key.trials} trials)",
        key.holds,
        key.max_excess,
        witness=key.violations[:3] or None,
    )

    positive, faithful = expectation_check(G, seed)
    report.exact("conditional expectation is positive and faithful", positive and faithful)
    return _finish(report, started)


# ---------------------------------------------------------------------------
# the selftest: condensed invariant suites with a fixed seed


def selftest_experiment(seed: int = DEFAULT_SEED) -> ExperimentReport:
    started = time.monotonic()
    report = ExperimentReport("selftest", {}, seed=seed)
    rng = random.Random(seed)

    # star space: the action is a left action and open sets form a lattice
    G = GermGroupoid.star(4)
    ok = True
    for _ in range(25):
        s = random_group_element(G.group, rng)
        t = random_group_element(G.group, rng)
        h = random_ppfun(4, rng)
        if act(s, act(t, h)) != act(s * t, h):
            ok = False
    report.exact("edge action composes (25 random function pulls)", ok)

    ok = True
    for _ in range(25):
        a = random_open_set(4, rng)
        b = random_open_set(4, rng)
        c = random_open_set(4, rng)
        if a.union(b) != b.union(a) or a.intersect(b) != b.intersect(a):
            ok = False
        if a.union(b.union(c)) != a.union(b).union(c):
            ok = False
        if a.union(a.intersect(b)) != a or a.intersect(a.union(b)) != a:
            ok = False
        s = random_group_element(G.group, rng)
        if act(s, a).intersect(act(s, b)) != act(s, a.intersect(b)):
            ok = False
    report.exact("open sets form a lattice compatible with the action", ok)

    ok = True
    for _ in range(15):
        f, g, h = (random_ppfun(4, rng) for _ in range(3))
        gh = g * h
        if (f + g) * h != f * h + gh or (f * g) * h != f * gh:
            ok = False
    report.exact("coefficient functions satisfy the ring laws", ok)

    ok = True
    for _ in range(50):
        x, y, z = (random_germ(G, rng) for _ in range(3))
        try:
            g1 = G.compose(x, G.compose(y, z))
            g2 = G.compose(G.compose(x, y), z)
            ok = ok and g1 == g2
        except GermError:
            pass  # non-composable draws are fine
    report.exact("germ composition associates where defined", ok)

    ok = True
    for _ in range(12):
        f = random_algebra_element(G, rng, sheets=2)
        g = random_algebra_element(G, rng, sheets=2)
        h = random_algebra_element(G, rng, sheets=2)
        fg = f * g
        if fg * h != f * (g * h):
            ok = False
        if fg.adjoint() != g.adjoint() * f.adjoint():
            ok = False
        for _ in range(8):
            germ = random_germ(G, rng)
            if fg.evaluate(germ) != alg.evaluate_convolution_pointwise(f, g, germ):
                ok = False
    report.exact("convolution associates, respects *, matches pointwise sums", ok)

    group = G.group
    ok = True
    for _ in range(20):
        a = random_group_algebra_element(group, rng)
        b = random_group_algebra_element(group, rng)
        rep_a = integrated_rep(a)
        if integrated_rep(a * b) != rep_a * integrated_rep(b):
            ok = False
        u = phi(a, G)
        for _ in range(4):
            germ = random_germ(G, rng)
            if isinstance(germ, EdgeGerm):
                if u.evaluate(germ) != rep_a[germ.j - 1, germ.i - 1]:
                    ok = False
    report.exact("integration is multiplicative and matches sheet sums", ok)

    tau = parse_cycles("(1 2)", 4)
    _, norm_report = build_strange_normalizer(G, tau, trials=3, seed=seed)
    report.exact("normalizer pipeline verifies on (1 2)", norm_report.ok)

    corpus = [
        FiniteGroupoid.transformation(3, PermGroup.cyclic(3)),
        FiniteGroupoid.transformation(1, PermGroup.cyclic(1)),
        FiniteGroupoid.full_equivalence(3),
        FiniteGroupoid.units_only(4),
        FiniteGroupoid.transformation(4, PermGroup.klein_cross()),
    ]
    ok = True
    for FG in corpus:
        flags = principality(FG)
        inter = intersection_property_check(FG, seed=seed)
        masa = diagonal_masa_check(FG)
        if flags.essentially_principal and not (inter.holds and masa.is_masa):
            ok = False
        if faithfulness_check(FG, seed=seed).holds != inter.holds:
            ok = False
    report.exact(
        "finite corpus: essentially principal implies ideal and masa properties",
        ok,
    )
    return _finish(report, started)
