"""Results do not depend on the Python version.

From Python 3.12 builtin ``sum()`` compensates float rounding, so the
same floats can sum to a different last bit than on 3.10 and 3.11.
Result paths add floats with :func:`repro.metrics.ordered_sum`, left to
right; these tests run the pinned points with a compensated ``sum`` in
place of the builtin, whatever version runs them.
"""

import builtins
import math

import pytest

from repro.core.metric import BlockCost, ProcessorCost
from repro.experiments import get_study, registry
from repro.metrics import ordered_sum
from test_pinned_digests import LENGTH, PINNED, metrics_digest

_builtin_sum = builtins.sum


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 computes it on float input: correctly
    rounded here (``math.fsum``), not added left to right."""
    values = list(values)
    if start == 0 and values and all(type(v) is float for v in values):
        return math.fsum(values)
    return _builtin_sum(values, start)


def test_penelope_tdp_adds_left_to_right():
    tdps = [1.0, 1.01, 1.01, 1.02, 1.01]
    assert compensated_sum(tdps) == 5.05
    assert ordered_sum(tdps) == 5.049999999999999
    assert ordered_sum([]) == 0 and ordered_sum([2, 3]) == 5
    blocks = [BlockCost(f"b{i}", tdp=tdp) for i, tdp in enumerate(tdps)]
    assert ProcessorCost(blocks).tdp == 5.049999999999999 / 5


@pytest.mark.parametrize("study,suite,seed", sorted(PINNED))
def test_pinned_digest_with_compensated_sum(monkeypatch, study, suite,
                                            seed):
    # A fresh stage memo, so synthesis and every stage run under the
    # compensated sum too.
    stages = registry.StageMemo()
    monkeypatch.setattr(registry, "_STAGES", stages)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    metrics = get_study(study).execute(
        {"suite": suite, "seed": seed, "length": LENGTH})
    monkeypatch.undo()
    # The point went through that memo: it ran cold.
    assert len(stages) > 0
    assert metrics_digest(metrics) == PINNED[(study, suite, seed)]
