"""Extension: branch predictor as a cache-like block (Section 3.2.1).

The paper names branch predictors among the cache-like structures that
can hold inverted contents; this bench quantifies the trade: bit-cell
balance improves while prediction accuracy pays a bounded cost.
"""

import random

from repro.analysis import format_table
from repro.uarch.branch_predictor import (
    BimodalPredictor,
    ProtectedBimodalPredictor,
)
from repro.uarch.uop import UopClass

from conftest import SMOKE, write_result


def branch_stream(workload):
    """(pc, taken) pairs for the workload's branches.

    Each branch uop is attributed to one of a few dozen static branch
    sites; a site's outcome follows a stable per-site bias (loop
    back-edges are strongly taken, guards strongly not-taken), which is
    what gives real bimodal predictors their accuracy — and what biases
    the pattern-table bit cells.
    """
    rng = random.Random(4242)
    stream = []
    for trace in workload:
        for index, uop in enumerate(t for t in trace
                                    if t.uop_class is UopClass.BRANCH):
            site_id = hash((trace.suite, index % 48)) % 64
            # Spread sites over the whole pattern table (512 entries).
            site = 0x1000 + site_id * 8 * 4
            # Deterministic per-site bias in {0.05..0.95}.
            bias = 0.05 + (site_id % 10) / 10.0
            stream.append((site, rng.random() < bias))
    return stream


RATIOS = (0.25, 0.5)


def compare(stream):
    plain = BimodalPredictor(entries=512)
    protected = {
        ratio: ProtectedBimodalPredictor(
            BimodalPredictor(entries=512), ratio=ratio,
            rotation_period=2048,
        )
        for ratio in RATIOS
    }
    for pc, taken in stream:
        plain.update(pc, taken)
        for predictor in protected.values():
            predictor.update(pc, taken)
    return plain, protected


def test_ablation_branch_predictor(benchmark, workload):
    stream = branch_stream(workload)
    plain, protected = benchmark.pedantic(
        compare, args=(stream,), rounds=1, iterations=1
    )
    if not SMOKE:
        assert plain.stats.accuracy > 0.6
        # Balance improves at every ratio; accuracy cost grows with the
        # ratio (unlike caches, a predictor entry has no "dead" state to
        # exploit — the trade-off is why the paper only sketches this
        # structure).
        accuracies = [protected[r].stats.accuracy for r in RATIOS]
        assert accuracies == sorted(accuracies, reverse=True)
        assert (protected[0.25].stats.accuracy
                > plain.stats.accuracy - 0.12)
        for ratio in RATIOS:
            assert (protected[ratio].worst_bias()
                    <= plain.worst_bias() + 1e-9)

    rows = [["baseline", f"{plain.stats.accuracy:.1%}",
             f"{plain.worst_bias():.1%}"]]
    for ratio in RATIOS:
        predictor = protected[ratio]
        rows.append([
            f"{ratio:.0%} inverted",
            f"{predictor.stats.accuracy:.1%}",
            f"{predictor.worst_bias():.1%}",
        ])
    text = format_table(
        ["configuration", "accuracy", "worst counter-bit bias"],
        rows,
        title="Extension — branch predictor inversion "
              f"({len(stream)} branches)",
    )
    write_result("ablation_branch_predictor.txt", text)
