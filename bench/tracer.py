"""Per-layer tracing of germoid from outside the package.

``install(tracer)`` wraps the public functions and methods of each module
where their callers look them up (the defining module, every germoid module
that imported the name, and class attributes), so ``src/`` stays untouched.
A wrapped call records a span ``<layer>.<function>``; work counts are
computed from the arguments and results at the wrapper.  Scalar arithmetic
and permutation products only count, because a span per operation would
cost more than the operation.

Spans stay in memory until ``write_spans``; the metrics are aggregated as
they close:

- ``<name>.calls``   spans opened under that name,
- ``<name>.busy_s``  time covered by them (nested same-name spans once),
- ``<name>.self_s``  their time minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Layers with spans.  ``cli.main`` is the root span of every item, so the
# cli layer reports only its self share: time spent outside every other span.
LAYERS = ("poly", "perms", "germs", "algebra", "linalg", "rep", "finite",
          "sampling", "reports", "cli")

# The span metrics reported; the last part says calls, busy_s or self_s.
SPAN_METRICS = (
    "poly.pmul.calls", "poly.pmul.self_s", "poly.peval.calls", "poly.peval.self_s",
    "poly.piecewise.calls", "poly.piecewise.self_s",
    "perms.group_build.calls", "perms.group_build.busy_s",
    "germs.hausdorff_check.calls", "germs.hausdorff_check.busy_s",
    "algebra.convolve.calls", "algebra.convolve.self_s",
    "algebra.check_compatible.calls", "algebra.check_compatible.self_s",
    "algebra.add.calls", "algebra.add.self_s",
    "linalg.rref.calls", "linalg.rref.self_s",
    "rep.min_norm_preimage.calls", "rep.min_norm_preimage.busy_s",
    "rep.kernel_projection.busy_s", "rep.build_unitary_v.self_s",
    "rep.commutant_basis.calls", "rep.commutant_basis.busy_s",
    "rep.group_algebra_mul.calls", "rep.group_algebra_mul.self_s",
    "rep.phi.busy_s", "rep.build_strange_normalizer.self_s",
    "finite.groupoid_build.busy_s",
    "finite.center_basis_exact.calls", "finite.center_basis_exact.busy_s",
    "finite.minimal_central_projections.calls", "finite.minimal_central_projections.busy_s",
    "finite.regular_rep.calls", "finite.regular_rep.busy_s",
    "finite.convolve.calls", "finite.convolve.self_s",
    "finite.key_inequality_check.busy_s", "finite.intersection_property_check.busy_s",
    "finite.faithfulness_check.busy_s",
    "sampling.random_algebra_element.calls", "sampling.random_algebra_element.busy_s",
    "sampling.random_ppfun.calls", "sampling.random_ppfun.busy_s",
    "cli.main.calls", "cli.main.busy_s",
    "reports.to_json.calls", "reports.to_json.busy_s",
)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.calls = Counter()
        self.busy = Counter()
        self.self_s = Counter()
        self.layer_busy = Counter()
        self.layer_self = Counter()
        self.spans = []        # (span id, parent id, item, name, start, end)
        self.item = None
        self._stack = []       # [name, layer, start, child time, span id]
        self._open_names = Counter()
        self._open_layers = Counter()

    def current(self):
        return self._stack[-1][0] if self._stack else None

    def enter(self, name, layer):
        self._open_names[name] += 1
        self._open_layers[layer] += 1
        self._stack.append([name, layer, perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # reserve the id; filled in on exit

    def exit(self):
        end = perf_counter()
        name, layer, start, child, sid = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[sid] = (sid, parent[4] if parent else None, self.item, name, start, end)
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.layer_self[layer] += dur - child
        self._open_names[name] -= 1
        if not self._open_names[name]:
            self.busy[name] += dur
        self._open_layers[layer] -= 1
        if not self._open_layers[layer]:
            self.layer_busy[layer] += dur

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn in a span; pre(counts, args) runs before the call (for
        arguments the call mutates), post(counts, args, result) after it."""
        layer = name.split(".", 1)[0]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(counts, args)
            self.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    def write_spans(self, path):
        """Dump the spans as JSON lines: id, parent, item, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, item, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, item, name, round(start, 7), round(end, 7)]))
                fh.write("\n")


# ---------------------------------------------------------------------------
# work counts, computed at the wrapper


def _pmul(c, args, result):
    c["poly.pmul.coeff_products"] += len(args[0]) * len(args[1])


def _group_build(c, args, result):
    c["perms.group_elements"] += len(result)


def _hausdorff(c, args, result):
    k = len(args[0].group)
    c["germs.pairs_examined"] += k * (k - 1) // 2


def _convolve(c, args, result):
    f, g = args
    c["algebra.center_products"] += len(f.center) * len(g.center)
    c["algebra.strip_pairs_scanned"] += len(f.strips) * len(g.strips)
    # a pair of strips multiplies when g's range edge is f's source edge
    by_source = Counter(k for (k, _j) in f.strips)
    c["algebra.strip_pairs_hit"] += sum(by_source[k2] for (_i, k2) in g.strips)


def _compatible(c, args, result):
    el = args[0]
    # each center element sigma matches exactly the n pairs (i, sigma(i))
    c["algebra.compat_pairs_scanned"] += len(el.groupoid.admissible_pairs) * len(el.center)
    c["algebra.compat_pairs_hit"] += el.groupoid.n * len(el.center)


def _rref_in(c, args):
    rows = args[0]
    if rows:
        c["linalg.rref.cells"] += len(rows) * len(rows[0])
        c["linalg.rref.nonzero"] += sum(1 for r in rows for x in r if x.re or x.im)
        c["linalg.rref.rows"] += len(rows)


def _rref_out(c, args, result):
    c["linalg.rref.pivots"] += len(result)


def _commutant(c, args, result):
    mats = args[0]
    c["rep.commutant_rows"] += len(mats) * mats[0].nrows ** 2


def _groupoid(c, args, result):
    c["finite.groupoids"] += 1
    c["finite.arrows"] += len(args[0].arrows)


def _faithfulness(c, args, result):
    c["finite.kernels_checked"] += result.kernels_checked


def _to_json(c, args, result):
    # the wall time's digits vary from run to run; the rest of the report does not
    c["reports.json_bytes"] += len(result) - len(json.dumps(args[0].wall_time_s))


# (span name, module, class or None, attribute, pre, post)
SPANS = (
    ("poly.pmul", "germoid.poly", None, "pmul", None, _pmul),
    ("poly.peval", "germoid.poly", None, "peval", None, None),
    ("poly.piecewise", "germoid.poly", "PiecewisePoly", "__init__", None, None),
    ("poly.piecewise", "germoid.poly", "PiecewisePoly", "__add__", None, None),
    ("poly.piecewise", "germoid.poly", "PiecewisePoly", "__sub__", None, None),
    ("poly.piecewise", "germoid.poly", "PiecewisePoly", "__mul__", None, None),
    ("perms.group_build", "germoid.perms", "PermGroup", "generate", None, _group_build),
    ("germs.hausdorff_check", "germoid.germs", "GermGroupoid", "hausdorff_check", None,
     _hausdorff),
    ("algebra.convolve", "germoid.algebra", "AlgebraElement", "__mul__", None, _convolve),
    ("algebra.check_compatible", "germoid.algebra", "AlgebraElement", "check_compatible",
     None, _compatible),
    ("algebra.add", "germoid.algebra", "AlgebraElement", "__add__", None, None),
    ("linalg.rref", "germoid.linalg", None, "rref", _rref_in, _rref_out),
    ("rep.min_norm_preimage", "germoid.rep", None, "min_norm_preimage", None, None),
    ("rep.kernel_projection", "germoid.rep", None, "kernel_projection", None, None),
    ("rep.build_unitary_v", "germoid.rep", None, "build_unitary_v", None, None),
    ("rep.commutant_basis", "germoid.rep", None, "commutant_basis", None, _commutant),
    ("rep.group_algebra_mul", "germoid.rep", "GroupAlgebraElement", "__mul__", None, None),
    ("rep.phi", "germoid.rep", None, "phi", None, None),
    ("rep.build_strange_normalizer", "germoid.rep", None, "build_strange_normalizer",
     None, None),
    ("finite.groupoid_build", "germoid.finite", None, "parse_finite_spec", None, None),
    ("finite.groupoid_build", "germoid.finite", "FiniteGroupoid", "_validate", None,
     _groupoid),
    ("finite.center_basis_exact", "germoid.finite", None, "center_basis_exact", None, None),
    ("finite.minimal_central_projections", "germoid.finite", None,
     "minimal_central_projections", None, None),
    ("finite.regular_rep", "germoid.finite", None, "regular_rep", None, None),
    ("finite.convolve", "germoid.finite", "FiniteAlgebraElement", "__mul__", None, None),
    ("finite.convolve", "germoid.finite", None, "_vec_convolve", None, None),
    ("finite.key_inequality_check", "germoid.finite", None, "key_inequality_check",
     None, None),
    ("finite.intersection_property_check", "germoid.finite", None,
     "intersection_property_check", None, None),
    ("finite.faithfulness_check", "germoid.finite", None, "faithfulness_check", None,
     _faithfulness),
    ("sampling.random_algebra_element", "germoid.sampling", None, "random_algebra_element",
     None, None),
    ("sampling.random_ppfun", "germoid.sampling", None, "random_ppfun", None, None),
    ("reports.to_json", "germoid.reports", "ExperimentReport", "to_json", None, _to_json),
)


def _count_scalar_ops(tracer, Scalar):
    counts = tracer.counts
    mul, add, sub, div = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.__truediv__

    def counted_mul(a, b):
        counts["scalars.mul"] += 1
        if not a.im and (not isinstance(b, Scalar) or not b.im):
            counts["scalars.mul_real"] += 1
        return mul(a, b)

    def counted_add(a, b):
        counts["scalars.add"] += 1
        return add(a, b)

    def counted_sub(a, b):
        counts["scalars.add"] += 1
        return sub(a, b)

    def counted_div(a, b):
        counts["scalars.div"] += 1
        return div(a, b)

    # __rmul__ and __radd__ are the same functions as __mul__ and __add__
    for attr, fn in (("__mul__", counted_mul), ("__rmul__", counted_mul),
                     ("__add__", counted_add), ("__radd__", counted_add),
                     ("__sub__", counted_sub), ("__truediv__", counted_div)):
        setattr(Scalar, attr, fn)


def _count_perm_products(tracer, Permutation):
    counts = tracer.counts
    mul = Permutation.__mul__

    def counted_mul(a, b):
        counts["perms.mul"] += 1
        return mul(a, b)

    Permutation.__mul__ = counted_mul


def _count_kernel_dim(tracer, nullspace):
    counts = tracer.counts

    def counted_nullspace(rows, ncols):
        basis = nullspace(rows, ncols)
        if tracer.current() == "rep.min_norm_preimage":
            counts["rep.kernel_dim"] += len(basis)
        return basis

    return counted_nullspace


def _replace_everywhere(orig, new):
    """Point every germoid module global that is ``orig`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name == "germoid" or name.startswith("germoid."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap every traced function of the imported germoid package."""
    import germoid.linalg
    from germoid.perms import Permutation
    from germoid.scalars import Scalar

    for name, module, cls, attr, pre, post in SPANS:
        owner = sys.modules[module]
        if cls is None:
            orig = getattr(owner, attr)
            _replace_everywhere(orig, tracer.span(name, orig, pre, post))
            continue
        klass = getattr(owner, cls)
        raw = vars(klass)[attr]
        if isinstance(raw, classmethod):
            setattr(klass, attr, classmethod(tracer.span(name, raw.__func__, pre, post)))
        else:
            setattr(klass, attr, tracer.span(name, raw, pre, post))
    _count_scalar_ops(tracer, Scalar)
    _count_perm_products(tracer, Permutation)
    orig = germoid.linalg.nullspace
    _replace_everywhere(orig, _count_kernel_dim(tracer, orig))


# ---------------------------------------------------------------------------
# the per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, overhead: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    traced_wall_s is the traced pass time; overhead is its ratio to an
    untraced pass, both at the same machine speed."""
    c, calls, busy, self_s = tracer.counts, tracer.calls, tracer.busy, tracer.self_s
    m = {
        "scalars.mul": (c["scalars.mul"], "count"),
        "scalars.add": (c["scalars.add"], "count"),
        "scalars.div": (c["scalars.div"], "count"),
        "scalars.real_share": (_ratio(c["scalars.mul_real"], c["scalars.mul"]), "ratio"),
        "poly.pmul.coeff_products": (c["poly.pmul.coeff_products"], "count"),
        "perms.mul": (c["perms.mul"], "count"),
        "perms.group_elements": (c["perms.group_elements"], "count"),
        "germs.pairs_examined": (c["germs.pairs_examined"], "count"),
        "algebra.center_products": (c["algebra.center_products"], "count"),
        "algebra.strip_pairs_scanned": (c["algebra.strip_pairs_scanned"], "count"),
        "algebra.strip_hit_ratio": (
            _ratio(c["algebra.strip_pairs_hit"], c["algebra.strip_pairs_scanned"]), "ratio"),
        "algebra.compat_hit_ratio": (
            _ratio(c["algebra.compat_pairs_hit"], c["algebra.compat_pairs_scanned"]), "ratio"),
        "linalg.rref.cells": (c["linalg.rref.cells"], "count"),
        "linalg.rref.density": (_ratio(c["linalg.rref.nonzero"], c["linalg.rref.cells"]),
                                "ratio"),
        "linalg.rref.rank_ratio": (_ratio(c["linalg.rref.pivots"], c["linalg.rref.rows"]),
                                   "ratio"),
        "rep.kernel_dim": (c["rep.kernel_dim"], "count"),
        "rep.commutant_rows": (c["rep.commutant_rows"], "count"),
        "finite.arrows": (c["finite.arrows"], "count"),
        "finite.center_solves_per_groupoid": (
            _ratio(calls["finite.center_basis_exact"], c["finite.groupoids"]), "ratio"),
        "finite.kernels_checked": (c["finite.kernels_checked"], "count"),
        "reports.json_bytes": (c["reports.json_bytes"], "bytes"),
        "trace.overhead": (overhead, "ratio"),
    }
    per_kind = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (self_s, "s")}
    for metric in SPAN_METRICS:
        name, kind = metric.rsplit(".", 1)
        table, unit = per_kind[kind]
        m[metric] = (table[name], unit)
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.share"] = (_ratio(tracer.layer_busy[layer], traced_wall_s), "ratio")
        m[f"{layer}.self_share"] = (_ratio(tracer.layer_self[layer], traced_wall_s), "ratio")
    return m
