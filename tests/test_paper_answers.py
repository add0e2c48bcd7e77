"""Pins on the paper's answers: the two experiments' errors and eigen-gaps
on both measurement routes, and the lifted system's rank and conditioning.

The acceptance criteria bound the paper errors hundreds of times above
their values, so a change that degrades the numerics could pass them.
These pins sit close to the values instead.  Each is one-sided (an error
may fall, a gap may rise) or invariant (the rank, and s_671/s_1, which any
exact rebuild of the lifted matrix keeps to roundoff), so a change that
improves a figure never has to edit a pin, and one that worsens it fails.

The error bounds are 1.1 times the larger of the values under one and two
BLAS threads; the gap bounds are 0.9 times the values.
"""

import json

import pytest

from liftphase import cli

from conftest import merged_factorization

RUNS = {
    # (experiment, method): (error bound, eigen-gap lower bound)
    ("paper-1", "quadrature"): (6.2e-6, 0.9 * 4.1694),
    ("paper-2", "quadrature"): (2.82e-3, 0.9 * 3.5540),
    ("paper-1", "series"): (8.5e-8, 0.9 * 6.2436),
    ("paper-2", "series"): (1.54e-5, 0.9 * 6.2428),
}


@pytest.fixture(scope="module")
def metrics(paper_system, tmp_path_factory):
    """metrics.json of each run; every run recovers through the one cached
    paper-grid system, whose factorization is computed once."""
    out = {}
    for name, method in RUNS:
        where = tmp_path_factory.mktemp(f"{name}-{method}")
        assert cli.main(["experiment", name, "--method", method,
                         "--out", str(where)]) == 0
        out[name, method] = json.loads((where / "metrics.json").read_text())
    return out


def test_rank_and_conditioning(paper_system):
    _, s, _ = merged_factorization(paper_system)
    assert int((s > 1e-10 * s[0]).sum()) == 671
    assert s[670] / s[0] == pytest.approx(9.608107e-9, rel=1e-6)


@pytest.mark.parametrize("run", RUNS, ids=["-".join(r) for r in RUNS])
def test_experiment_answers(metrics, run):
    error_bound, gap_bound = RUNS[run]
    m = metrics[run]
    assert m["rank"] == 671
    assert m["aligned_relative_error"] <= error_bound
    assert m["eigen_gap"] >= gap_bound
