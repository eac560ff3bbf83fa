"""The cross-backend determinism pin: one campaign, both executors,
byte-identical scorecards.

This is the acceptance test for the dist subsystem — if the socket
fleet reorders, drops, or double-applies a cell, the rendered scorecard
text diverges and this fails.  A fresh cache keeps the comparison
honest (the fleet may not lean on the baseline's artifacts).
"""

from repro.experiments.chaos import render_scorecard, run_chaos_campaign
from repro.parallel.cache import ResultCache
from tests.experiments.test_chaos import TINY


def test_socket_scorecard_matches_inprocess(tmp_path):
    baseline = render_scorecard(run_chaos_campaign(TINY, seed=11))
    report = run_chaos_campaign(TINY, seed=11, jobs=2,
                                cache=ResultCache(str(tmp_path)),
                                backend="socket")
    assert render_scorecard(report) == baseline
