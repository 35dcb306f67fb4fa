"""Extension: measuring the conventional invert-periodically scheme.

The paper charges periodic inversion a 10% delay (data-path XNOR) and
ignores its cache-flush cost "which is against our technique"; this
bench measures that flush cost and prices both variants with the
metric, next to Penelope's LineFixed.
"""

import pytest

from repro.analysis import format_table
from repro.core.cache_like import LineFixedScheme, run_cache_study
from repro.core.inverted_mode import (
    PeriodicInversionScheme,
    inverted_mode_block_cost,
)
from repro.core.metric import nbti_efficiency
from repro.uarch.backends import CacheConfig
from repro.workloads import generate_address_stream, suite_names

from conftest import SMOKE, scaled, write_result

CONFIG = CacheConfig(name="DL0-16K-8w", size_bytes=16 * 1024, ways=8)


@pytest.fixture(scope="module")
def streams():
    return [
        generate_address_stream(suite, length=scaled(10_000), seed=11)
        for suite in suite_names()
    ]


def compare(streams):
    linefixed = run_cache_study(CONFIG, lambda: LineFixedScheme(0.5),
                                streams)
    flushing = run_cache_study(
        CONFIG, lambda: PeriodicInversionScheme(period=5000), streams
    )
    return linefixed, flushing


def test_ablation_inverted_mode(benchmark, streams):
    linefixed, flushing = benchmark.pedantic(
        compare, args=(streams,), rounds=1, iterations=1
    )
    # Penelope's efficiency on this block: CPI loss, no cycle-time hit.
    penelope_eff = nbti_efficiency(1.0 + linefixed.mean_loss, 0.02, 1.01)
    # Inverted mode: XNOR delay plus the measured flush CPI cost.
    inverted_eff = inverted_mode_block_cost(
        cpi_factor=1.0 + flushing.mean_loss
    ).efficiency

    if not SMOKE:
        assert penelope_eff < inverted_eff

    rows = [
        ["LineFixed50% CPI loss", f"{linefixed.mean_loss:.2%}"],
        ["invert-periodically flush CPI loss",
         f"{flushing.mean_loss:.2%}"],
        ["LineFixed50% NBTIefficiency",
         f"{penelope_eff:.2f} (paper: 1.09)"],
        ["invert-periodically NBTIefficiency",
         f"{inverted_eff:.2f} (paper: 1.41, flush ignored)"],
    ]
    write_result(
        "ablation_inverted_mode.txt",
        format_table(["statistic", "value"], rows,
                     title="Extension — invert-periodically, priced "
                           "with its flush cost"),
    )
