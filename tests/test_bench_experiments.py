"""Smoke tests for the experiment entry points on reduced inputs.

The full-size experiments live under ``benchmarks/``; here each entry
point is driven with the smallest inputs that exercise its code path, so
``pytest tests/`` stays fast while covering the harness itself.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS, fig7, fig8, fig9, fig10, fig11, fig12
from repro.bench import experiments
from repro.bench.experiments import ExperimentResult
from repro.ordering import partition as partition_ordering


class TestRegistry:
    def test_all_twelve_experiments_registered(self):
        expected = {
            "table1", "fig1", "fig4", "fig5", "fig6a", "fig6b",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestReducedRuns:
    def test_fig7_reduced(self):
        result = fig7(
            partition_counts=(2, 8, 32),
            datasets=("chicago_road", "euroroad"),
        )
        assert isinstance(result, ExperimentResult)
        assert result.data["best"].startswith("metis_")
        assert "metis_2" in result.text

    def test_fig8_reduced(self):
        result = fig8(datasets=("chicago_road",))
        assert result.data["chicago_road"]["divergence_factor"] >= 1.0

    def test_fig9_reduced(self):
        result = fig9(
            datasets=("ca_roadnet",),
            schemes=("natural", "degree_sort"),
            num_threads=2,
        )
        reports = result.data["reports"]["ca_roadnet"]
        assert set(reports) == {"natural", "degree_sort"}
        assert "phase_ms" in result.text

    def test_fig10_reduced(self):
        result = fig10(
            datasets=("ca_roadnet",), schemes=("natural",)
        )
        report = result.data["reports"]["ca_roadnet"]["natural"]
        assert report.counters.loads > 0

    def test_fig11_reduced(self):
        result = fig11(
            datasets=("ca_roadnet",),
            schemes=("natural",),
            max_samples=120,
        )
        report = result.data["reports"]["ca_roadnet"]["natural"]
        assert report.num_samples >= 1
        assert "total_ms" in result.text

    def test_fig12_reduced(self):
        result = fig12(
            dataset="ca_roadnet",
            schemes=("natural",),
            max_samples=120,
        )
        assert result.data["reports"]["natural"].counters.loads > 0


class TestCli:
    def test_main_rejects_unknown(self, capsys):
        from repro.bench.__main__ import main
        assert main(["not_an_experiment"]) == 2


class TestResultPersistence:
    def test_save_writes_text_and_json(self, tmp_path):
        import json
        from repro.bench.experiments import ExperimentResult
        result = ExperimentResult(
            "demo", "Demo", "row1\nrow2",
            data={"scores": {"a": 1.5}, "arr": __import__("numpy").arange(3)},
        )
        text_path, json_path = result.save(tmp_path)
        assert "row1" in open(text_path).read()
        payload = json.loads(open(json_path).read())
        assert payload["experiment_id"] == "demo"
        assert payload["data"]["scores"]["a"] == 1.5
        assert payload["data"]["arr"] == [0, 1, 2]

    def test_save_serialises_reports(self, tmp_path):
        """Dataclass-valued experiment data serialises via asdict."""
        import json
        from repro.bench import fig12
        result = fig12(
            dataset="ca_roadnet", schemes=("natural",), max_samples=100
        )
        _, json_path = result.save(tmp_path)
        payload = json.loads(open(json_path).read())
        assert "natural" in payload["data"]["reports"]

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main
        # use the cheapest real experiment
        rc = main(["fig8", "--output", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig8.txt").exists()
        assert (tmp_path / "fig8.json").exists()


class TestMetisCellStore:
    def test_warm_cell_reads_the_store(self, monkeypatch):
        """A second fig7 cell on a warm store recomputes no partition."""
        cell = (8, "euroroad")
        cold = experiments._metis_cell(cell)

        def refuse(*args, **kwargs):
            raise AssertionError("warm fig7 cell recomputed METIS")

        monkeypatch.setattr(partition_ordering, "partition_graph", refuse)
        assert experiments._metis_cell(cell) == cold

