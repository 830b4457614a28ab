"""`repro.bench`: grid configs, trajectory emission, regression compare."""

import json

import pytest

from repro import bench
from repro.api.cli import main
from repro.bench.grid import GridConfig, run_series
from repro.errors import WorkloadError

TINY_GRID = {
    "name": "tiny",
    "repeat": 1,
    "series": [{
        "key": "one",
        "benchmarks": ["gsmdec"],
        "variants": ["mdc/prefclus"],
        "machines": ["baseline"],
        "scale": 0.05,
    }],
}


def _series_cell(wall=1.0, cps=100.0, frontend=0.5, specs=1,
                 cycles=1000, ops=500, dig="abc"):
    return {
        "wall_seconds": wall, "cycles_per_second": cps,
        "frontend_seconds": frontend, "specs": specs,
        "total_cycles": cycles, "issued_ops": ops,
        "records_digest": dig,
    }


def _trajectory(**series):
    return {"schema": 1, "grid": "t", "repeat": 1, "series": series}


class TestGridConfig:
    def test_parses_series_with_defaults(self):
        config = GridConfig.from_dict(TINY_GRID)
        assert config.name == "tiny"
        assert config.repeat == 1
        (series,) = config.series
        assert series.key == "one"
        assert series.plan()  # resolvable into a non-empty Plan

    def test_scenario_sampler_resolves_at_parse_time(self):
        data = {
            "name": "s",
            "series": [{
                "key": "sampled",
                "scenarios": {"seed": 3, "count": 2,
                              "families": ["gather"]},
            }],
        }
        first = GridConfig.from_dict(data).series[0].benchmarks
        second = GridConfig.from_dict(data).series[0].benchmarks
        assert len(first) == 2
        assert first == second  # seeded: a pure function of the config
        assert all(name.startswith("scn-") for name in first)

    @pytest.mark.parametrize("broken", [
        {},  # no name/series
        {"name": "x", "series": []},  # empty
        {"name": "x", "series": [{"key": "a"}]},  # no benchmarks/sampler
        {"name": "x", "series": [  # duplicate keys
            {"key": "a", "benchmarks": ["gsmdec"]},
            {"key": "a", "benchmarks": ["g721dec"]},
        ]},
    ])
    def test_malformed_configs_raise_workload_error(self, broken):
        with pytest.raises(WorkloadError):
            GridConfig.from_dict(broken)

    @pytest.mark.parametrize("removed, value", [
        ("engine", "batch"),
        ("batch_size", 16),
    ])
    def test_removed_engine_keys_are_rejected_by_name(self, removed, value):
        # Both keys once selected the deleted batched simulation engine.
        stale = json.loads(json.dumps(TINY_GRID))
        stale["series"][0][removed] = value
        with pytest.raises(WorkloadError, match=repr(removed)):
            GridConfig.from_dict(stale)

    def test_load_rejects_missing_and_non_json_files(self, tmp_path):
        with pytest.raises(WorkloadError):
            GridConfig.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(WorkloadError):
            GridConfig.load(bad)

    def test_default_grid_config_is_valid(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        config = GridConfig.load(repo / "benchmarks/grids/default.json")
        assert config.name == "default"
        assert len(config.series) >= 3


class TestRunSeries:
    def test_deterministic_fields_are_reproducible(self):
        series = GridConfig.from_dict(TINY_GRID).series[0]
        first = run_series(series, repeat=1)
        second = run_series(series, repeat=1)
        for name in bench.grid.DETERMINISTIC_FIELDS:
            assert first[name] == second[name], name
        assert first["specs"] == 1
        assert first["total_cycles"] > 0
        assert first["wall_seconds"] > 0


class TestEmission:
    def test_write_load_round_trip_and_csv(self, tmp_path):
        trajectory = _trajectory(one=_series_cell())
        trajectory["grid"] = "tiny"
        paths = bench.write_trajectory(trajectory, tmp_path)
        assert paths["json"].name == "BENCH_tiny.json"
        assert bench.load_trajectory(paths["json"]) == trajectory
        lines = paths["csv"].read_text().splitlines()
        assert lines[0].startswith("series,wall_seconds")
        assert lines[1].startswith("one,1.000000")

    def test_load_rejects_non_trajectory_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(WorkloadError):
            bench.load_trajectory(path)

    def test_render_mentions_every_series(self):
        text = bench.render(_trajectory(one=_series_cell(),
                                        two=_series_cell()))
        assert "one" in text and "two" in text


class TestCompare:
    def test_identical_trajectories_are_clean(self):
        t = _trajectory(one=_series_cell())
        result = bench.compare(t, t)
        assert result.ok
        assert not result.notes and not result.improvements

    def test_injected_slowdown_is_a_regression(self):
        prev = _trajectory(one=_series_cell(wall=1.0))
        cur = _trajectory(one=_series_cell(wall=1.5))
        result = bench.compare(cur, prev, threshold=0.15)
        assert not result.ok
        assert "one.wall_seconds" in result.regressions[0]
        assert "+50.0%" in result.regressions[0]

    def test_threshold_absorbs_small_noise(self):
        prev = _trajectory(one=_series_cell(wall=1.0))
        cur = _trajectory(one=_series_cell(wall=1.1))
        assert bench.compare(cur, prev, threshold=0.15).ok

    def test_throughput_drop_is_a_regression_speedup_an_improvement(self):
        prev = _trajectory(one=_series_cell(cps=100.0))
        drop = bench.compare(_trajectory(one=_series_cell(cps=50.0)), prev)
        assert any("cycles_per_second" in r for r in drop.regressions)
        fast = bench.compare(
            _trajectory(one=_series_cell(wall=0.5, cps=100.0)),
            _trajectory(one=_series_cell(wall=1.0, cps=100.0)))
        assert fast.ok and fast.improvements

    def test_missing_series_is_a_regression_new_series_a_note(self):
        prev = _trajectory(one=_series_cell())
        cur = _trajectory(two=_series_cell())
        result = bench.compare(cur, prev)
        assert any("disappeared" in r for r in result.regressions)
        assert any("new series" in n for n in result.notes)

    def test_deterministic_drift_is_a_note_not_a_failure(self):
        prev = _trajectory(one=_series_cell(cycles=1000))
        cur = _trajectory(one=_series_cell(cycles=2000))
        result = bench.compare(cur, prev)
        assert result.ok
        assert any("total_cycles" in n for n in result.notes)

    def test_sub_epsilon_timings_are_ignored(self):
        prev = _trajectory(one=_series_cell(wall=1e-4, frontend=1e-4))
        cur = _trajectory(one=_series_cell(wall=9e-4, frontend=9e-4))
        assert bench.compare(cur, prev).ok


class TestCli:
    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(TINY_GRID))
        return path

    def test_bench_run_emits_trajectory_and_csv(self, tmp_path,
                                                grid_file, capsys):
        rc = main(["bench", "run", "--grid", str(grid_file),
                   "--repeat", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench grid tiny" in out
        bench_json = tmp_path / "BENCH_tiny.json"
        assert bench_json.exists()
        assert (tmp_path / "BENCH_tiny.csv").exists()
        trajectory = json.loads(bench_json.read_text())
        assert trajectory["schema"] == bench.BENCH_SCHEMA
        assert trajectory["series"]["one"]["specs"] == 1

    def test_bench_run_creates_missing_out_dir(self, tmp_path, grid_file):
        out_dir = tmp_path / "fresh" / "nested"
        rc = main(["bench", "run", "--grid", str(grid_file),
                   "--repeat", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "BENCH_tiny.json").exists()
        assert (out_dir / "BENCH_tiny.csv").exists()

    def test_bench_run_out_dir_file_fails_before_any_series(
            self, tmp_path, grid_file, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        rc = main(["bench", "run", "--grid", str(grid_file),
                   "--repeat", "1", "--out-dir", str(blocker)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "series" not in err  # no series started
        (line,) = err.strip().splitlines()
        assert line.startswith("error: cannot create --out-dir")

    def test_bench_compare_fails_on_injected_slowdown(self, tmp_path,
                                                      grid_file, capsys):
        main(["bench", "run", "--grid", str(grid_file),
              "--repeat", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        current = tmp_path / "BENCH_tiny.json"

        # Same file against itself: clean.
        assert main(["bench", "compare", str(current),
                     "--against", str(current)]) == 0
        assert "no regressions" in capsys.readouterr().out

        # Inject a 2x slowdown into a copy of the previous trajectory —
        # i.e. the current run is 2x slower than it.
        slowed = json.loads(current.read_text())
        slowed["series"]["one"]["wall_seconds"] /= 2.0
        slowed["series"]["one"]["cycles_per_second"] *= 2.0
        previous = tmp_path / "BENCH_prev.json"
        previous.write_text(json.dumps(slowed))
        rc = main(["bench", "compare", str(current),
                   "--against", str(previous)])
        assert rc == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_bench_compare_missing_file_is_a_clean_error(self, tmp_path,
                                                         capsys):
        rc = main(["bench", "compare", str(tmp_path / "nope.json"),
                   "--against", str(tmp_path / "nope2.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_verbs_reject_bad_files(self, tmp_path, capsys):
        assert main(["obs", "trace", str(tmp_path / "no.json")]) == 2
        assert main(["obs", "metrics", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
