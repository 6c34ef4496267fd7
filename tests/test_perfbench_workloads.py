"""perfbench/workloads.py: the library API the benchmark imports still
builds every case, so a change to it fails here, not in a benchmark run."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from chns_imex.imex import RunResult

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = workloads     # its dataclass looks itself up there
SPEC.loader.exec_module(workloads)

CASES = [case for cases in workloads.WORKLOADS.values() for case in cases]


@pytest.mark.filterwarnings(
    "ignore:linear solver 'direct' is deprecated:DeprecationWarning")
@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_every_case_builds_and_checks(case):
    """Each case builds its grid, parameters, initial state, forcing and
    integrator; the initial state is valid and of the grid's shapes, the
    integrator takes a positive step from it, and `check` of a run that
    stopped at t = 0 reports the missing steps (and, for the manufactured
    solution, its error against the reference) without raising."""
    grid, params, U0, forcing = workloads.build_initial(case, seed=1)
    assert (grid.dim, grid.M, params.cp) == (2, case.M, case.cp)
    assert (forcing is None) == (case.test is not None)
    U0.check_valid()
    assert U0.rho.shape == (case.M, case.M)
    assert [m.shape for m in U0.m] == [(case.M - 1, case.M),
                                      (case.M, case.M - 1)]
    integ = workloads.build_integrator(case, grid, params, forcing)
    assert 0 < integ.select_dt(U0) < case.T
    if forcing is not None:
        assert forcing(0.0).rho.shape == U0.rho.shape
    c_max = workloads.c_abs_max(U0)
    assert c_max <= workloads.C_BOUND
    bad, err = workloads.check(case, grid, params, U0,
                               RunResult(state=U0, t=0.0), c_max)
    assert bad[0] == f"steps 0 != reference {case.steps}"
    if case.test is None:
        # at t = 0 only the face averages of rho in the momenta differ
        assert 0 < err < case.mms_error / 10
        assert len(bad) == 2 and bad[1].startswith(f"error {err!r}")
    else:
        assert np.isnan(err) and len(bad) == 1


def test_manufactured_ladder_order_check():
    """`check_order` passes the recorded errors of the manufactured ladder
    and fails a ladder whose errors do not fall."""
    cases = workloads.WORKLOADS["mms2d"]
    errors = [case.mms_error for case in cases]
    assert workloads.check_order(cases, errors) == []
    assert workloads.check_order(cases, [errors[0]] * len(cases))
