"""The benchmark's per-layer tracer still installs on the package.

``bench/tracer.py`` wraps methods it reads from each class's own
``__dict__`` and module functions by name, so moving one of them (into a
base class, say) breaks ``bench/run.py --trace 1``.  This runs the tracer's
``install`` on a fresh import in a subprocess and three short experiments
under it; each group's first preimage solves for the minimal polynomial
of its fixed-point count through ``linalg.rref``.  None of the three adds
algebra elements or multiplies group-algebra elements (the star pipeline
checks unitarity without products), so the script makes one
``AlgebraElement.__add__`` and one ``GroupAlgebraElement.__mul__`` call of
its own.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import germoid
from germoid.algebra import AlgebraElement
from germoid.cli import main
from germoid.germs import GermGroupoid
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["star", "--n", "4", "--trials", "1"]), main(["cross", "--trials", "2"]),
             main(["star", "--n", "3"])]
one = AlgebraElement.unit(GermGroupoid.cross())
one + one
one.center * one.center
print(json.dumps({{"codes": codes, "calls": tracer.calls, "counts": tracer.counts}}))
"""


def test_the_tracer_installs_and_counts_spans():
    script = _SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 2]
    calls = out["calls"]
    for span in ("algebra.convolve", "algebra.check_compatible", "algebra.add",
                 "rep.group_algebra_mul", "rep.phi", "rep.kernel_projection",
                 # each group's first preimage finds mu through linalg.rref
                 "rep.min_norm_preimage", "linalg.rref"):
        assert calls.get(span, 0) > 0, span
    assert out["counts"]["algebra.center_products"] > 0
