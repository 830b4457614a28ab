"""The ``repro.surrogate`` subsystem: featurizer, learned cost model,
frontier guide, model artifacts, guided sweeps and the CLI verbs.

The differential-validation class is the load-bearing one: it proves on
a seeded 64-cell space that a guided sweep can never *invent* an
anomaly — every anomaly it reports is backed by a real simulation and
is one the exhaustive sweep reports too.
"""

from __future__ import annotations

import json

import pytest

from repro.api.artifacts import MemoryArtifactStore
from repro.api.cli import main
from repro.api.runner import Runner
from repro.api.spec import RunSpec
from repro.api.store import MemoryStore
from repro.errors import ConfigError, WorkloadError
from repro.scenarios.generator import ScenarioParams, sample_scenarios
from repro.scenarios.sweep import run_sweep
from repro.surrogate import (
    FEATURE_NAMES,
    TARGETS,
    FrontierSelection,
    SurrogateModel,
    TrainRow,
    cell_key,
    describe_features,
    feature_schema_hash,
    featurize,
    featurize_spec,
    interest_scores,
    list_model_ids,
    load_model,
    load_models,
    rank_correlation,
    record_targets,
    rows_from_records,
    save_model,
    select_frontier,
    top_fraction_keys,
    train_from_records,
    train_from_rows,
)
from repro.surrogate.model import MODEL_SCHEMA

SCN = "scn-gather-n24-m45-r2-a30-s7"


# ----------------------------------------------------------------------
# Featurizer
# ----------------------------------------------------------------------
class TestFeaturizer:
    def test_same_cell_same_vector(self):
        a = featurize(SCN, "baseline", "mdc/mincoms")
        b = featurize(SCN, "baseline", "mdc/mincoms")
        assert a == b
        assert len(a) == len(FEATURE_NAMES)

    def test_knobs_decode_straight_from_the_name(self):
        params = ScenarioParams.parse(SCN)
        named = describe_features(featurize(SCN))
        assert named["bias"] == 1.0
        assert named["scn_size"] == params.size
        assert named["scn_mem_pct"] == params.mem_pct
        assert named["scn_recurrence"] == params.recurrence
        assert named["scn_alias_pct"] == params.alias_pct
        assert named["scn_rec_x_size"] == params.recurrence * params.size
        assert named["scn_alias_x_mem"] == params.alias_pct * params.mem_pct
        assert named["fam_gather"] == 1.0
        assert named["ddg_nodes"] > 0

    def test_machine_model_suffix_decodes(self):
        named = describe_features(featurize(SCN, machine="baseline-mmdls"))
        assert named["model_dls"] == 1.0
        assert named["model_snooping"] == 0.0
        # An explicit model argument wins over the suffix.
        named = describe_features(
            featurize(SCN, machine="baseline-mmdls", model="snooping")
        )
        assert named["model_snooping"] == 1.0

    def test_generated_machine_names_decode(self):
        machine = "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"
        named = describe_features(featurize(SCN, machine=machine))
        assert named["mach_clusters"] == 4.0
        assert named["mach_mem_buses"] == 1.0
        assert named["mach_mem_bus_latency"] == 8.0
        assert named["mach_nl_latency"] == 60.0
        # The -mm suffix composes with generated names too.
        named = describe_features(featurize(SCN, machine=machine + "-mmdls"))
        assert named["model_dls"] == 1.0

    def test_spec_and_direct_featurization_agree(self):
        spec = RunSpec(benchmark=SCN, variant="ddgt/prefclus",
                       machine="baseline", scale=0.05, model="dls")
        assert featurize_spec(spec) == featurize(
            SCN, "baseline", "ddgt/prefclus", model="dls"
        )

    def test_only_scenario_names_featurize(self):
        with pytest.raises(WorkloadError):
            featurize("gsmdec")

    def test_unknown_variant_is_an_error(self):
        with pytest.raises(WorkloadError):
            featurize(SCN, variant="bogus/heur")

    def test_schema_hash_is_stable_and_named(self):
        assert feature_schema_hash() == feature_schema_hash()
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)

    def test_cell_key_identity(self):
        assert cell_key(SCN, "baseline", "mdc/prefclus", "dls") == (
            f"{SCN}|baseline|mdc/prefclus|dls"
        )


# ----------------------------------------------------------------------
# Model fitting + serialization
# ----------------------------------------------------------------------
def _synthetic_rows(n: int = 24):
    """Deterministic rows with a learnable nonlinear structure."""
    rows = []
    specs = sample_scenarios(13, n)
    for i, params in enumerate(specs):
        variant = ("mdc/prefclus", "mdc/mincoms")[i % 2]
        features = featurize(params.name, "baseline", variant)
        rows.append(TrainRow(
            key=cell_key(params.name, "baseline", variant),
            features=features,
            targets={
                "ipc": 2.0 - 0.01 * params.size,
                "ii": float(max(params.recurrence * 3, 2)),
                "traffic": params.alias_pct * params.mem_pct / 100.0,
            },
        ))
    return rows


class TestModelTraining:
    def test_roundtrip_is_byte_stable(self):
        model = train_from_rows(_synthetic_rows())
        text = model.to_json()
        clone = SurrogateModel.from_json(text)
        assert clone.to_json() == text, "load -> dump must be byte-identical"
        assert clone.model_id == model.model_id
        vector = _synthetic_rows()[0].features
        assert clone.predict(vector) == model.predict(vector)

    def test_learns_to_rank_the_training_targets(self):
        rows = _synthetic_rows(32)
        model = train_from_rows(rows, holdout_frac=0.0)
        for target in TARGETS:
            predicted = [model.predict(r.features)[target] for r in rows]
            actual = [r.targets[target] for r in rows]
            assert rank_correlation(predicted, actual) > 0.8, (
                f"failed to rank {target} on its own training set"
            )

    def test_holdout_metrics_are_reported(self):
        model = train_from_rows(_synthetic_rows(32))
        for target in TARGETS:
            assert set(model.metrics[target]) == {
                "mae", "rank_corr", "holdout"
            }
        assert any(model.metrics[t]["holdout"] > 0 for t in TARGETS)

    def test_holdout_split_depends_on_cell_keys_not_row_order(self):
        rows = _synthetic_rows(32)
        forward = train_from_rows(rows)
        backward = train_from_rows(list(reversed(rows)))
        for target in TARGETS:
            held = forward.metrics[target]["holdout"]
            assert 0 < held < len(rows)
            assert backward.metrics[target]["holdout"] == held

    def test_too_few_rows_is_a_clean_error(self):
        with pytest.raises(WorkloadError):
            train_from_rows(_synthetic_rows(4))

    def test_schema_mismatch_refuses_to_predict(self):
        model = train_from_rows(_synthetic_rows())
        model.schema_hash = "0" * 16
        with pytest.raises(ConfigError):
            model.check_schema()

    def test_refit_with_new_rows_replaces_stale_cells(self):
        rows = _synthetic_rows(16)
        model = train_from_rows(rows)
        stale = rows[0]
        fresh = TrainRow(key=stale.key, features=stale.features,
                         targets={"ipc": 9.0, "ii": 1.0, "traffic": 0.0})
        refit = model.refit_with([fresh])
        assert refit.train_size == model.train_size
        kept = {row.key: row for row in refit.rows}[stale.key]
        assert kept.targets["ipc"] == 9.0

    def test_rank_correlation_properties(self):
        assert rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert rank_correlation([3, 2, 1], [10, 20, 30]) == pytest.approx(-1.0)
        assert rank_correlation([1.0], [2.0]) == 0.0
        assert rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0


# ----------------------------------------------------------------------
# Frontier guide
# ----------------------------------------------------------------------
class TestGuide:
    def test_interest_scores_bounds(self):
        targets = [
            {"ipc": 2.0, "ii": 2.0, "traffic": 0.1},
            {"ipc": 0.5, "ii": 9.0, "traffic": 5.0},
            {"ipc": 1.0, "ii": 4.0, "traffic": 1.0},
        ]
        scores = interest_scores(targets)
        assert all(0.0 <= s <= 3.0 for s in scores)
        # The stall-bound, traffic-heavy, high-II cell dominates.
        assert scores[1] == max(scores)
        assert interest_scores([targets[0]]) == [1.5]

    def test_top_fraction_is_deterministic_and_nonempty(self):
        keys = [f"cell-{i}" for i in range(10)]
        targets = [
            {"ipc": 1.0, "ii": float(i), "traffic": float(i % 3)}
            for i in range(10)
        ]
        first = top_fraction_keys(keys, targets, 0.1)
        assert first == top_fraction_keys(keys, targets, 0.1)
        assert len(first) == 1
        assert top_fraction_keys([], [], 0.1) == []

    def _specs_and_model(self):
        names = [p.name for p in sample_scenarios(17, 12)]
        specs = [
            RunSpec(benchmark=name, variant=variant, machine="baseline",
                    scale=0.05)
            for name in names
            for variant in ("mdc/prefclus", "mdc/mincoms")
        ]
        return specs, train_from_rows(_synthetic_rows())

    def test_select_frontier_partitions_the_specs(self):
        specs, model = self._specs_and_model()
        sel = select_frontier(specs, model, 8, explore_frac=0.25, seed=3)
        assert isinstance(sel, FrontierSelection)
        assert len(sel.chosen) == 8
        assert len(sel.chosen) + len(sel.skipped) == len(specs)
        assert sel.frontier_count + sel.explore_count == 8
        assert sel.explore_count == 2
        chosen_keys = {s.content_hash for s in sel.chosen}
        assert not chosen_keys & {s.content_hash for s in sel.skipped}

    def test_selection_is_deterministic_per_seed(self):
        specs, model = self._specs_and_model()
        first = select_frontier(specs, model, 8, seed=1)
        again = select_frontier(specs, model, 8, seed=1)
        assert [s.content_hash for s in first.chosen] == [
            s.content_hash for s in again.chosen
        ]

    def test_budget_covering_everything_skips_nothing(self):
        specs, model = self._specs_and_model()
        sel = select_frontier(specs, model, len(specs) + 5)
        assert sel.chosen == specs
        assert sel.skipped == []

    def test_invalid_budget_and_explore_frac(self):
        specs, model = self._specs_and_model()
        with pytest.raises(WorkloadError):
            select_frontier(specs, model, 0)
        with pytest.raises(WorkloadError):
            select_frontier(specs, model, 4, explore_frac=1.5)


# ----------------------------------------------------------------------
# Model artifacts on disk
# ----------------------------------------------------------------------
class TestModelStore:
    def test_save_load_latest_roundtrip(self, tmp_path):
        model = train_from_rows(_synthetic_rows())
        path = save_model(model, tmp_path)
        assert path.is_file()
        assert list_model_ids(tmp_path) == [model.model_id]
        loaded = load_model("latest", tmp_path)
        assert loaded.to_json() == model.to_json()
        by_id = load_model(model.model_id, tmp_path)
        assert by_id.model_id == model.model_id
        by_path = load_model(str(path), tmp_path)
        assert by_path.model_id == model.model_id

    def test_save_is_idempotent(self, tmp_path):
        model = train_from_rows(_synthetic_rows())
        assert save_model(model, tmp_path) == save_model(model, tmp_path)
        assert len(list_model_ids(tmp_path)) == 1

    def test_missing_model_is_a_clean_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_model("latest", tmp_path)
        with pytest.raises(ConfigError):
            load_model("deadbeef00000000", tmp_path)

    def test_unknown_schema_is_refused_by_name(self):
        model = train_from_rows(_synthetic_rows())
        future = dict(model.to_dict(), schema=MODEL_SCHEMA + 1)
        with pytest.raises(ConfigError,
                           match=f"schema {MODEL_SCHEMA + 1}"):
            SurrogateModel.from_json(json.dumps(future))

    def test_schema_1_artifact_is_refused_and_skipped(
        self, tmp_path, monkeypatch, capsys
    ):
        """Artifacts are input from outside the program: a schema-1 file
        (the ridge-era format, with its standardization and weight
        fields) must be refused by name on load and skipped by the
        listing, never crash it."""
        model = train_from_rows(_synthetic_rows())
        save_model(model, tmp_path)
        legacy = dict(model.to_dict(), schema=1, means=[0.0], scales=[1.0],
                      weights={"ipc": [0.0]})
        legacy_id = "0" * 16
        path = tmp_path / "surrogate" / f"model-{legacy_id}.json"
        path.write_text(json.dumps(legacy, sort_keys=True), encoding="utf-8")

        with pytest.raises(ConfigError, match="schema 1"):
            load_model(legacy_id, tmp_path)
        with pytest.raises(ConfigError, match="schema 1"):
            load_model(str(path), tmp_path)
        assert [m.model_id for m in load_models(tmp_path)] == [
            model.model_id
        ]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["list"]) == 0
        listing = capsys.readouterr().out
        assert model.model_id in listing
        assert legacy_id not in listing


# ----------------------------------------------------------------------
# Provenance: RunRecord.source
# ----------------------------------------------------------------------
class TestProvenance:
    def test_store_hits_are_tagged_but_not_serialized(self):
        runner = Runner(store=MemoryStore(), artifacts=MemoryArtifactStore())
        spec = RunSpec(benchmark=SCN, variant="mdc/prefclus",
                       machine="baseline", scale=0.05)
        first = runner.run([spec])[0]
        again = runner.run([spec])[0]
        assert first.source == "simulated"
        assert again.source == "store"
        assert first == again, "provenance must not affect equality"
        assert "source" not in first.to_dict()
        assert "source" not in json.dumps(again.to_dict())


# ----------------------------------------------------------------------
# Differential validation on a seeded 64-cell space
# ----------------------------------------------------------------------
VARIANTS_64 = ("none/mincoms", "mdc/prefclus", "mdc/mincoms",
               "ddgt/mincoms")


@pytest.fixture(scope="module")
def seeded_space():
    """Exhaustive ground truth + a guided sweep of the same 64-cell
    space (16 scenarios x 4 variants), sharing nothing but the seed."""
    names = [p.name for p in sample_scenarios(29, 16)]
    full = run_sweep(
        names, scale=0.05, variants=VARIANTS_64,
        runner=Runner(store=MemoryStore(), artifacts=MemoryArtifactStore()),
    )
    model = train_from_records(full.records[: len(full.records) // 2])
    guided = run_sweep(
        names, scale=0.05, variants=VARIANTS_64,
        runner=Runner(store=MemoryStore(), artifacts=MemoryArtifactStore()),
        surrogate=model, budget=24, explore_frac=0.125,
    )
    return full, guided, model


class TestGuidedSweepDifferential:
    def test_space_is_64_cells(self, seeded_space):
        full, _, _ = seeded_space
        assert len(full.records) == 64

    def test_budget_is_respected(self, seeded_space):
        _, guided, _ = seeded_space
        assert guided.simulated_runs <= 24
        assert guided.skipped_runs == 64 - guided.simulated_runs

    def test_guided_anomalies_are_a_subset_of_exhaustive(self, seeded_space):
        full, guided, _ = seeded_space
        assert set(guided.anomalies) <= set(full.anomalies), (
            "a guided sweep must never report an anomaly the exhaustive "
            "sweep would not"
        )

    def test_anomalies_are_backed_by_simulated_records(self, seeded_space):
        _, guided, _ = seeded_space
        measured = {r.benchmark for r in guided.records}
        skipped_only = {
            s.benchmark for s in guided.skipped_specs
        } - measured
        for anomaly in guided.anomalies:
            scenario = anomaly.split("scenario=")[1].split()[0]
            assert scenario in measured
            assert scenario not in skipped_only

    def test_summaries_account_for_every_cell(self, seeded_space):
        _, guided, _ = seeded_space
        simulated = sum(s.simulated for s in guided.summaries)
        skipped = sum(s.skipped for s in guided.summaries)
        assert simulated == guided.simulated_runs
        assert skipped == len(guided.skipped_specs)
        assert simulated + skipped == 64
        for summary in guided.summaries:
            if summary.runs == 0:
                assert summary.source == "skipped"
            assert summary.source in (
                "simulated", "store", "skipped", "mixed"
            )

    def test_csv_rows_carry_the_source_column(self, seeded_space):
        _, guided, _ = seeded_space
        header, *rows = guided.to_csv().strip().splitlines()
        assert header.split(",")[-3:] == ["simulated", "skipped", "source"]
        assert any(row.split(",")[-1] == "skipped" for row in rows)

    def test_active_learning_refits_on_fresh_ground_truth(self, seeded_space):
        _, guided, model = seeded_space
        refit = guided.surrogate
        assert refit is not model
        assert refit.train_size > model.train_size
        fresh_keys = {
            cell_key(r.benchmark, r.machine, r.variant, r.model)
            for r in guided.records if r.source == "simulated"
        }
        assert fresh_keys <= {row.key for row in refit.rows}

    def test_store_hits_ride_free_outside_the_budget(self):
        names = [p.name for p in sample_scenarios(31, 4)]
        runner = Runner(store=MemoryStore(), artifacts=MemoryArtifactStore())
        warm = run_sweep(names, scale=0.05, variants=VARIANTS_64,
                         runner=runner)
        model = train_from_records(warm.records)
        guided = run_sweep(
            names, scale=0.05, variants=VARIANTS_64, runner=runner,
            surrogate=model, budget=1,
        )
        assert guided.store_runs == 16
        assert guided.simulated_runs == 0
        assert guided.skipped_runs == 0

    def test_surrogate_without_budget_is_an_error(self, seeded_space):
        _, _, model = seeded_space
        with pytest.raises(WorkloadError):
            run_sweep(["scn-stream-n16-m40-r0-a10-s1"], scale=0.05,
                      surrogate=model)


# ----------------------------------------------------------------------
# CLI: surrogate train / guided sweep / cache + list integration
# ----------------------------------------------------------------------
class TestSurrogateCli:
    def _warm_cache(self, cache):
        assert main([
            "scenarios", "sweep", "--seed", "19", "--count", "4",
            "--scale", "0.05", "--cache-dir", str(cache),
        ]) == 0

    def test_train_guide_list_cache_loop(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        self._warm_cache(cache)
        capsys.readouterr()

        assert main(["surrogate", "train", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "surrogate model" in out
        assert list_model_ids(cache), "train must save an artifact"

        assert main([
            "scenarios", "sweep", "--seed", "23", "--count", "4",
            "--scale", "0.05", "--cache-dir", str(cache),
            "--surrogate", "--budget", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "surrogate-guided" in out

        assert main(["list"]) == 0
        assert "surrogate models" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        info = capsys.readouterr().out
        assert "surrogate" in info

        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert list_model_ids(cache) == []

    @pytest.mark.parametrize("flag, value", [
        ("--model-type", "ridge"),
        ("--ridge-lambda", "0.5"),
    ])
    def test_removed_train_flags_are_rejected(self, tmp_path, capsys,
                                              flag, value):
        """The predictor family and its hyperparameters are fixed; the
        old tuning flags are usage errors, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["surrogate", "train", "--cache-dir", str(tmp_path),
                  "--no-save", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_min_rank_corr_floor_fails_the_train(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        self._warm_cache(cache)
        capsys.readouterr()
        assert main([
            "surrogate", "train", "--cache-dir", str(cache),
            "--min-rank-corr", "1.01", "--no-save",
        ]) == 1
        assert "rank" in capsys.readouterr().err.lower()

    def test_guided_sweep_without_budget_is_a_clean_error(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        self._warm_cache(cache)
        capsys.readouterr()
        assert main(["surrogate", "train", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main([
            "scenarios", "sweep", "--seed", "23", "--count", "2",
            "--cache-dir", str(cache), "--surrogate",
        ]) != 0
        assert "budget" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Training rows from records
# ----------------------------------------------------------------------
class TestTrainingRows:
    def test_rows_dedup_by_cell_and_skip_catalog(self, seeded_space):
        full, _, _ = seeded_space
        rows = rows_from_records(list(full.records) + list(full.records))
        assert len(rows) == len(full.records)
        assert rows == sorted(rows, key=lambda row: row.key)

    def test_record_targets_are_finite(self, seeded_space):
        full, _, _ = seeded_space
        for record in full.records:
            targets = record_targets(record)
            assert set(targets) == set(TARGETS)
            for value in targets.values():
                assert value >= 0.0
