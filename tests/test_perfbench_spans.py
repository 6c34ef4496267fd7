"""perfbench/spans.py: the patch points its tracer wraps stay where the
solver calls them, so a traced benchmark run records every layer."""

import collections
import importlib.util
import pathlib

from chns_imex.cases import initial_state
from chns_imex.grid import GridSpec
from chns_imex.imex import Integrator
from chns_imex.model import ModelParams

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(spans)


def test_traced_step_records_every_layer():
    """With `Tracer.installed()`, which fails with a KeyError on a patch
    point the solver no longer has, one Test 1 step at M = 16 records CG
    spans that count iterations, six WENO reconstructions per explicit
    tendency and Newton residuals, and leaves the solver as it was."""
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e8)
    U0 = initial_state(1, grid, params)
    points = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _ in spans.Tracer()._wrap_points()]
    tracer = spans.Tracer()
    with tracer.installed():
        integ = Integrator(grid, params)
        _, rec = integ.step(U0, 0.0, integ.select_dt(U0))
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in points)
    by_name = collections.defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    krylov = by_name["solvers.cstage.krylov"]
    assert len(krylov) == integ.tab.stages
    assert all(span.attrs["iters"] > 0 for span in krylov)
    assert sum(span.attrs["iters"] for span in krylov) == rec.lin_iters
    tendencies = {span.id for span in by_name["spatial.explicit_tendency"]}
    assert len(tendencies) == integ.tab.stages
    children = collections.Counter(span.parent
                                   for span in by_name["weno.reconstruct"])
    assert children == dict.fromkeys(tendencies, 6)
    assert len(by_name["solvers.newton.residual"]) == rec.residuals > 0
    metrics = spans.aggregate(tracer.spans)
    assert metrics["solvers.newton.iters"] == rec.newton_iters
