"""The catalogue against the driver's contract and BENCHMARK.json."""

import json
import os
import re

import pytest

import catalogue
import rules
from conftest import ROOT

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_match_the_drivers_rule():
    names = ([w.name for w in catalogue.WORKLOADS]
             + [m.name for m in catalogue.END_TO_END]
             + [m.name for m in catalogue.PER_LAYER])
    for name in names:
        assert rules.NAME_RE.match(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(names) == len(set(names)), "a name is used twice"


def test_units_and_directions_are_well_formed():
    for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
        assert UNIT_RE.match(metric.unit), (metric.name, metric.unit)
        assert metric.better in ("lower", "higher"), metric.name


def test_contract_limits():
    assert 2 <= len(catalogue.WORKLOADS) <= 8
    assert 1 <= len(catalogue.END_TO_END) <= 16
    assert 1 <= len(catalogue.PER_LAYER) <= 128
    assert 1 <= catalogue.RUN_SECONDS <= 60
    for workload in catalogue.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    for metric in catalogue.END_TO_END:
        assert 0 < metric.bound <= 0.25, metric.name
    setup = [m for m in catalogue.END_TO_END if m.name == "setup_s"]
    assert len(setup) == 1
    assert (setup[0].unit, setup[0].better) == ("s", "lower")
    assert setup[0].bound == max(m.bound for m in catalogue.END_TO_END)


def test_every_row_has_a_home_workload():
    known = {w.name for w in catalogue.WORKLOADS}
    for metric in catalogue.END_TO_END:
        assert metric.native and set(metric.native) <= known, metric.name
    for layer in catalogue.PER_LAYER:
        assert layer.workload in known | {"every workload"}, layer.name
        assert layer.moves, layer.name


def test_benchmark_json_is_the_catalogue():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document == catalogue.benchmark_json()
    assert os.path.getsize(path) <= 64 * 1024
    assert set(document) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    for path_ in document["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path_))


def test_fill_speaks_the_rows_unit():
    assert catalogue.fill("s", 12.0, 40) == 12.0
    assert catalogue.fill("cells/s", 12.0, 48) == 4.0
    assert catalogue.fill("ops/s", 2.0, 10) == 5.0
    assert catalogue.fill("ms", 2.0, 10) == 200.0
    with pytest.raises(ValueError):
        catalogue.fill("MB", 1.0, 1)
    for metric in catalogue.END_TO_END:
        if metric.name not in ("setup_s", "peak_rss_mb"):
            assert catalogue.fill(metric.unit, 3.0, 7) > 0
