"""Shared configuration for the scenario benchmarks.

``bench_ablation``, ``bench_dag``, ``bench_kangaroo`` and
``bench_reservation`` each run an ablation or extension scenario at a
benchmark-friendly scale, assert its claims and save its report under
``benchmarks/reports/`` (run with ``-s`` to see them).

The paper's own Figures 1-7 are not benchmarked here:
``python -m repro.experiments.runall`` builds them and
``python -m repro.experiments.validate`` checks every shape claim on
those same figures — at ``--scale medium`` (the default, the smallest
scale at which the claims hold) or ``--scale full`` (the paper's
parameters, what EXPERIMENTS.md records).
"""

import os

import pytest

#: Where rendered reports are written (one .txt per report).
REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


@pytest.fixture(scope="session")
def report_dir():
    os.makedirs(REPORT_DIR, exist_ok=True)
    return REPORT_DIR


def save_report(report_dir: str, name: str, text: str) -> None:
    with open(os.path.join(report_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
