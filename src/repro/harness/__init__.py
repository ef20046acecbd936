"""Benchmark harness: measurement methodology, kernel runners and reporting.

The measurement methodology follows the paper (Section V): a warmup run to
exclude compilation, repeated measurements (default 10 in the paper, fewer by
default here to keep the suite fast), and confidence-interval reporting in the
spirit of Hoefler & Belli's benchmarking guidelines.
"""

from repro.harness.measure import Measurement, measure
from repro.harness.runners import (
    KernelRunResult,
    copy_data,
    dace_gradient_runner,
    jaxlike_gradient_runner,
    peak_bytes,
    run_kernel_comparison,
)
from repro.harness.report import (
    format_pipeline_report,
    format_table,
    geometric_mean,
    speedup_summary,
    write_csv,
)
from repro.harness.paper_data import (
    PAPER_FIGURE1_SPEEDUPS,
    PAPER_TABLE1,
    paper_expectation,
)

__all__ = [
    "Measurement",
    "measure",
    "KernelRunResult",
    "copy_data",
    "dace_gradient_runner",
    "jaxlike_gradient_runner",
    "peak_bytes",
    "run_kernel_comparison",
    "format_pipeline_report",
    "format_table",
    "geometric_mean",
    "speedup_summary",
    "write_csv",
    "PAPER_FIGURE1_SPEEDUPS",
    "PAPER_TABLE1",
    "paper_expectation",
]
