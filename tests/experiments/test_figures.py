"""Figure modules: every render from one small ``build_figures`` campaign."""

import pytest

from repro.experiments.figure1 import render as render1
from repro.experiments.figure2 import render as render_timeline
from repro.experiments.figure4 import render_figure4, render_figure5
from repro.experiments.figure6 import render as render_reader
from repro.experiments.runall import Scale, build_figures

#: A seconds-scale runall grid covering every figure group.
SMALL = Scale(
    "test-small",
    fig1_counts=(5, 15),
    fig1_duration=30.0,
    timeline_clients=20,
    timeline_duration=60.0,
    buffer_counts=(5, 15),
    buffer_duration=30.0,
    reader_duration=300.0,
)


def render_all(figures) -> str:
    """Every figure's report text, in runall's order."""
    return "\n".join([
        render1(figures.fig1),
        render_timeline(figures.fig2),
        render_timeline(figures.fig3),
        render_figure4(figures.sweep),
        render_figure5(figures.sweep),
        render_reader(figures.fig6),
        render_reader(figures.fig7),
    ])


@pytest.fixture(scope="module")
def figures():
    return build_figures(SMALL, seed=2003)


class TestFigure1:
    @pytest.fixture
    def result(self, figures):
        return figures.fig1

    def test_all_disciplines_present(self, result):
        assert set(result.jobs) == {"fixed", "aloha", "ethernet"}

    def test_row_lengths(self, result):
        for rows in result.jobs.values():
            assert len(rows) == len(SMALL.fig1_counts)

    def test_render_contains_counts(self, result):
        text = render1(result)
        assert "submitters" in text
        assert "Figure 1" in text
        assert "ethernet" in text


class TestFigures2And3:
    def test_figure2_series(self, figures):
        result = figures.fig2
        assert result.discipline == "aloha"
        assert len(result.fd_series) > 5
        assert result.jobs_series is not None
        text = render_timeline(result)
        assert "free_fds" in text

    def test_figure3_is_ethernet(self, figures):
        assert figures.fig3.discipline == "ethernet"


class TestFigures4And5:
    @pytest.fixture
    def sweep(self, figures):
        return figures.sweep

    def test_both_views_present(self, sweep):
        assert set(sweep.consumed) == {"fixed", "aloha", "ethernet"}
        assert set(sweep.collisions) == {"fixed", "aloha", "ethernet"}

    def test_renders(self, sweep):
        assert "Figure 4" in render_figure4(sweep)
        assert "Figure 5" in render_figure5(sweep)


class TestFigures6And7:
    def test_figure6_aloha(self, figures):
        result = figures.fig6
        assert result.discipline == "aloha"
        assert result.run.transfers > 0
        text = render_reader(result)
        assert "collisions" in text

    def test_figure7_ethernet(self, figures):
        result = figures.fig7
        assert result.discipline == "ethernet"
        text = render_reader(result)
        assert "deferrals" in text
