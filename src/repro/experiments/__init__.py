"""Experiment harnesses regenerating every figure in the paper.

One module per figure family (Figures 2-3, 4-5 and 6-7 share one),
plus the scenario harnesses and plain-text reporting.
``python -m repro.experiments.runall`` regenerates everything at a
chosen scale and ``python -m repro.experiments.validate`` checks the
paper's shape claims on the same figures.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "chaos": (
        "ChaosCell", "ChaosReport", "check_ordering",
        "render_scorecard", "run_chaos_campaign"),
    "figure1": ("Figure1Result",),
    "figure2": ("TimelineResult",),
    "figure4": ("BufferSweepResult",),
    "figure6": ("ReaderTimelineResult",),
    "scenario_buffer": ("BufferParams", "BufferResult", "run_buffer"),
    "scenario_dag": ("DagParams", "DagResult", "run_dag_scenario"),
    "scenario_kangaroo": ("KangarooParams", "KangarooResult", "run_kangaroo"),
    "scenario_replica": ("ReplicaParams", "ReplicaResult", "run_replica"),
    "scenario_submit": ("SubmitParams", "SubmitResult", "run_submission"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
