"""The benchmark's output check: a changed record is caught and named.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from outcheck import check_items, expected_path, load_expected  # noqa: E402
from plans import build_plan, spec_label  # noqa: E402
from repro.api import (  # noqa: E402
    MemoryArtifactStore,
    MemoryStore,
    RunError,
    Runner,
)


def _first_memsim_record():
    plan, _ = build_plan("memsim", seed=0)
    spec = plan.specs[0]
    runner = Runner(store=MemoryStore(), artifacts=MemoryArtifactStore())
    return spec, runner.run_one(spec)


def test_record_matches_its_captured_digest():
    spec, record = _first_memsim_record()
    expected = load_expected(expected_path("memsim"))
    assert check_items([(spec_label(spec), record)], expected) == []


def test_perturbed_digest_fails_and_names_the_spec():
    spec, record = _first_memsim_record()
    label = spec_label(spec)
    expected = load_expected(expected_path("memsim"))
    expected[label] = "0" * 16
    failures = check_items([(label, record)], expected)
    assert [name for name, _ in failures] == [label]
    assert "!= expected 0000000000000000" in failures[0][1]


def test_run_error_and_unknown_spec_fail():
    spec, record = _first_memsim_record()
    error = RunError.from_exception(spec, spec.content_hash,
                                    ValueError("boom"))
    failures = check_items([("a", error), ("b", record)], {"a": "x"})
    assert failures == [("a", "raised ValueError: boom"),
                        ("b", "no expected digest captured for this spec")]


def test_command_exits_nonzero_and_names_each_failing_spec(tmp_path):
    expected = load_expected(expected_path("memsim"))
    victims = sorted(expected)[:2]
    for label in victims:
        expected[label] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"digests": expected}), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "memsim",
         "--seed", "3", "--seconds", "1", "--trace", "0",
         "--expected", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 1, done.stderr
    for label in victims:
        assert f"FAILED {label}: record digest" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["failed"] / result["attempted"] > 0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
