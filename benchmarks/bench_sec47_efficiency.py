"""Section 4.7 / Table 4: whole-processor NBTIefficiency.

Penelope's custom mechanisms vs. the two alternatives: paying the full
guardband (1.73) and inverting periodically (1.41, memory-like blocks
only).  Paper's Penelope processor: 1.28.
"""

from repro.analysis import format_table
from repro.api import build_penelope
from repro.core.metric import nbti_efficiency

from conftest import SMOKE, write_result


def evaluate(workload):
    # Default specs = the full Penelope configuration (DESIGN.md §4).
    return build_penelope(seed=4321).evaluate(workload)


def test_sec47_processor_efficiency(benchmark, workload):
    # Four representative suites keep the protected re-runs tractable.
    subset = [t for t in workload
              if t.suite in ("specint2000", "office", "kernels", "server")]
    report = benchmark.pedantic(
        evaluate, args=(subset,), rounds=1, iterations=1
    )

    baseline = report.baseline_efficiency
    invert = nbti_efficiency(1.10, 0.02, 1.0)
    penelope = report.efficiency
    if not SMOKE:
        assert penelope < invert < baseline

    rows = [["block", "guardband", "efficiency", "paper eff."]]
    paper_block = {"adder": "1.24", "int_rf": "1.12", "fp_rf": "1.12",
                   "scheduler": "1.24", "dl0+dtlb": "1.09"}
    body = []
    for block in report.block_costs:
        body.append([
            block.name,
            f"{block.guardband:.1%}",
            f"{block.efficiency:.2f}",
            paper_block[block.name],
        ])
    body.append(["penelope processor",
                 f"{report.processor.guardband:.1%}",
                 f"{penelope:.2f}", "1.28"])
    body.append(["invert periodically", "2.0%", f"{invert:.2f}", "1.41"])
    body.append(["full guardband (baseline)", "20.0%",
                 f"{baseline:.2f}", "1.73"])
    text = format_table(rows[0], body,
                        title="Section 4.7 — NBTIefficiency summary")
    text += (
        f"\ncombined CPI: {report.combined_cpi:.4f} (paper: 1.007); "
        f"bias: INT {report.int_rf_bias[0]:.2f}->{report.int_rf_bias[1]:.2f},"
        f" FP {report.fp_rf_bias[0]:.2f}->{report.fp_rf_bias[1]:.2f},"
        f" sched {report.scheduler_bias[0]:.2f}->"
        f"{report.scheduler_bias[1]:.2f}"
    )
    write_result("sec47_efficiency.txt", text)
