"""Experiment harnesses regenerating every figure in the paper.

One module per figure (Figures 4 and 5 share a sweep), plus the scenario
harnesses and plain-text reporting.  ``python -m repro.experiments.runall``
regenerates everything at a chosen scale.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "chaos": (
        "ChaosCell", "ChaosReport", "check_ordering",
        "render_scorecard", "run_chaos_campaign"),
    "figure1": ("Figure1Result", "run_figure1"),
    "figure2": ("TimelineResult", "run_figure2", "run_submit_timeline"),
    "figure3": ("run_figure3",),
    "figure4": ("BufferSweepResult", "run_buffer_sweep", "run_figure4"),
    "figure5": ("run_figure5",),
    "figure6": ("ReaderTimelineResult", "run_figure6", "run_reader_timeline"),
    "figure7": ("run_figure7",),
    "scenario_buffer": ("BufferParams", "BufferResult", "run_buffer"),
    "scenario_dag": ("DagParams", "DagResult", "run_dag_scenario"),
    "scenario_kangaroo": ("KangarooParams", "KangarooResult", "run_kangaroo"),
    "scenario_replica": ("ReplicaParams", "ReplicaResult", "run_replica"),
    "scenario_submit": ("SubmitParams", "SubmitResult", "run_submission"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
