"""Shared fixtures.

Expensive artefacts (adder netlists, reference traces) are session-scoped
so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.circuits import build_ladner_fischer_adder
from repro.experiments import registry
from repro.workloads import TraceGenerator


@pytest.fixture(autouse=True)
def cold_stages():
    """Each test starts from an empty stage memo, as a fresh process
    does: what a sweep computes (and traces) must not depend on which
    tests ran before it in this process, or in the one a worker was
    forked from."""
    registry._STAGES.clear()


@pytest.fixture(scope="session")
def adder8():
    """A small 8-bit Ladner-Fischer adder for functional tests."""
    return build_ladner_fischer_adder(width=8)


@pytest.fixture(scope="session")
def adder32():
    """The paper's 32-bit adder (built once per session)."""
    return build_ladner_fischer_adder(width=32)


@pytest.fixture(scope="session")
def small_trace():
    """A short deterministic specint trace."""
    return TraceGenerator(seed=11).generate("specint2000", length=1500)


@pytest.fixture(scope="session")
def fp_trace():
    """A short deterministic FP-heavy trace."""
    return TraceGenerator(seed=11).generate("specfp2000", length=1500)


def assert_reset_zeroes_counters(source, exercise) -> None:
    """Audit helper: ``reset()`` must zero every counter of a
    :class:`~repro.metrics.stats.MetricSource`.

    "Zero" means the post-construction value: plain components start
    all-zero, while protected wrappers legitimately register their
    scheme's cold-start work (e.g. the initial inversion window), which
    ``reset()`` must reproduce exactly.  ``exercise(source)`` drives
    some activity; the helper checks the activity registered (at least
    one counter moved — an audit that exercises nothing proves
    nothing), resets, and asserts every counter in a freshly-built
    metric tree reads its post-construction value again.
    """
    name = type(source).__name__
    tree = source.metrics()
    counters = [path for path, kind in tree.kinds().items()
                if kind == "counter"]
    assert counters, f"{name} exposes no counters"
    construction = tree.snapshot().values
    pristine = {path: construction[path] for path in counters}
    exercise(source)
    before = source.metrics().snapshot().values
    assert any(before[path] != pristine[path] for path in counters), (
        f"exercise() drove no counter of {name}: "
        f"{ {p: before[p] for p in counters} }"
    )
    source.reset()
    after = source.metrics().snapshot().values
    dirty = {path: after[path] for path in counters
             if after[path] != pristine[path]}
    assert not dirty, (
        f"{name}.reset() did not restore counters to their "
        f"post-construction values: {dirty} (expected "
        f"{ {p: pristine[p] for p in dirty} })"
    )


@pytest.fixture
def reset_audit():
    """The shared ``reset()``-zeroes-counters audit (see
    :func:`assert_reset_zeroes_counters`)."""
    return assert_reset_zeroes_counters
