"""Run one benchmark workload against the repro sources of this checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole passes of the workload's plan through
``Runner(store=MemoryStore(), artifacts=MemoryArtifactStore(),
parallel=1).stream`` and prints the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics.
Every record is checked against its expected digest; a failing spec is
named on stdout and the command exits with status 1.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Result sets and spans are written to ``.perfbench_out/``.
See README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh processes timed per run for ``setup_s``.
SETUP_SAMPLES = 5
#: Loops per traced run replayed on the per-cycle reference engine.
ORACLE_LOOPS = 4


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import warnings

    warnings.filterwarnings("ignore", message="kernel-iteration floor")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order the workload's specs run in")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="sweep only: draw the scenarios from this "
                             "seed (held-out runs; capture digests first)")
    parser.add_argument("--expected", type=Path, default=None,
                        help="expected-digest file (default: "
                             "perfbench/expected/<workload>.json)")
    parser.add_argument("--capture", action="store_true",
                        help="write the expected digests instead of "
                             "checking them")
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _timed_pass(plan, probe=None):
    """One pass over ``plan`` on fresh stores: the streamed items and
    the pass start followed by the time each item arrived."""
    from repro.api import MemoryArtifactStore, MemoryStore, Runner

    store, artifacts = MemoryStore(), MemoryArtifactStore()
    if probe is not None:
        probe.watch_stores(store, artifacts)
    runner = Runner(store=store, artifacts=artifacts, parallel=1)
    items = []
    stamps = [time.perf_counter()]
    for item in runner.stream(plan, on_error="yield"):
        stamps.append(time.perf_counter())
        items.append(item)
    return items, stamps


def _labelled(items, labels):
    return [(labels[item.spec_key], item) for item in items]


def _tail(gaps):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``."""
    ordered = sorted(gaps)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _setup_interval(args):
    """Process start until the first spec could be submitted, measured
    in a fresh interpreter: ``(start, end)`` on this process's clock."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", repr(time.time())]
    if args.scenario_seed is not None:
        cmd += ["--scenario-seed", str(args.scenario_seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return start, start + float(done.stdout.split()[-1])


def _write_result(name: str, payload) -> None:
    from hostenv import mixed_host_warning

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload, indent=1) + "\n",
                                encoding="utf-8")
    envs = []
    for path in sorted(OUT_DIR.glob("result-*.json")):
        try:
            envs.append(json.loads(path.read_text())["env"])
        except (OSError, ValueError, KeyError):
            continue
    warning = mixed_host_warning(envs)
    if warning:
        print(f"{warning} (in {OUT_DIR.name}/)")


def _report(args, metrics, attempted, failures, details):
    from hostenv import host_env

    env = host_env()
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print(f"env: {json.dumps(env)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    _write_result(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        dict(result, workload=args.workload, seed=args.seed, env=env,
             details=details, failures=failures),
    )
    print(json.dumps(result))
    return 1 if failures else 0


def run_untraced(args, plan, labels, expected) -> int:
    from hostspeed import SpeedProbe
    from outcheck import check_items

    passes, failures = [], []
    attempted, raw_total, measured = 0, 0.0, 0.0
    with SpeedProbe() as speed:
        setup_runs = [_setup_interval(args) for _ in range(SETUP_SAMPLES)]
        # Whole passes only; another starts if, at the last pass's
        # corrected length, it would end within --seconds.
        while True:
            items, stamps = _timed_pass(plan)
            passes.append(stamps)
            raw_total += stamps[-1] - stamps[0]
            last = speed.corrector()(stamps[0], stamps[-1])
            measured += last
            attempted += len(items)
            failures += check_items(_labelled(items, labels), expected)
            if measured + last > args.seconds:
                break
    corrected = speed.corrector()
    gaps = [corrected(a, b) for stamps in passes
            for a, b in zip(stamps, stamps[1:])]
    setup = [corrected(a, b) for a, b in setup_runs]
    tail, percentile = _tail(gaps)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "specs_per_s": (attempted / sum(gaps), "1/s"),
        "spec_p50_s": (statistics.median(gaps), "s"),
        "spec_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    details = {"passes": len(passes), "raw_s": raw_total,
               "corrected_s": sum(gaps), "latency_samples": len(gaps),
               "tail_percentile": percentile, "setup_samples_s": setup,
               "setup_raw_s": [b - a for a, b in setup_runs],
               "error_rate": len(failures) / attempted,
               "host_speed": speed.summary()}
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} specs in {raw_total:.2f} s raw, {sum(gaps):.2f} s "
          f"host-speed corrected; spec_tail_s is p{percentile:.1f} of "
          f"{len(gaps)} latencies; setup_s is the median of "
          f"{SETUP_SAMPLES} fresh processes; error_rate "
          f"{len(failures)}/{attempted}")
    return _report(args, metrics, attempted, failures, details)


def run_traced(args, plan, labels, expected, generate_s) -> int:
    from hostspeed import SpeedProbe
    from outcheck import check_items
    from plans import oracle_sample
    from spans import LAYERS, MODELS, STAGES, LayerProbe, Tracer

    tracer = Tracer()
    with SpeedProbe() as speed:
        items, untraced = _timed_pass(plan)
        with LayerProbe(tracer, oracle_sample(plan, args.seed,
                                              ORACLE_LOOPS)) as probe:
            traced, stamps = _timed_pass(plan, probe)
    failures = check_items(_labelled(items, labels), expected)
    failures += check_items(_labelled(traced, labels), expected)
    attempted = len(items) + len(traced)

    inc, c = tracer.inclusive(), probe.counts
    untraced_wall = untraced[-1] - untraced[0]
    traced_wall = stamps[-1] - stamps[0]
    check_s = inc["lint"] + inc["oracle"]
    program_wall = traced_wall - check_s
    corrected = speed.corrector()
    overhead = (corrected(stamps[0], stamps[-1]) * program_wall / traced_wall
                / corrected(untraced[0], untraced[-1]))
    sim_s = sum(inc[f"simulate.{m}"] for m in MODELS)
    store_s = inc["store.get"] + inc["store.put"]
    cycles = c["sim_cycles"]
    m = {"sched.compile_s": (inc["compile_loop"], "s")}
    for stage in STAGES:
        m[f"sched.stage_s.{stage}"] = (inc[f"stage.{stage}"], "s")
    m.update({
        "sched.modulo_calls": (c["modulo_calls"], "count"),
        "sched.modulo_fail_ratio": (
            c["modulo_failures"] / max(1, c["modulo_calls"]), "ratio"),
        "sched.mii_calls": (c["mii_calls"], "count"),
        "sched.mii_s": (inc["minimum_ii"], "s"),
        "sched.fits_calls": (c["fits_calls"], "count"),
        "sched.ii_sum": (c["ii_sum"], "cycles"),
        "sched.length_sum": (c["length_sum"], "cycles"),
    })
    for model in MODELS:
        m[f"sim.simulate_s.{model}"] = (inc[f"simulate.{model}"], "s")
    m.update({
        "sim.host_us_per_cycle": (1e6 * sim_s / max(1, cycles), "us/cycle"),
        "sim.cycles": (cycles, "cycles"),
        "sim.issued_ops": (c["sim_issued_ops"], "count"),
        "sim.stall_frac": (c["sim_stall_cycles"] / max(1, cycles), "ratio"),
        "sim.local_hit_ratio": (
            c["sim_local_hits"] / max(1, c["sim_accesses"]), "ratio"),
        "sim.bus_transfers": (c["sim_bus_transfers"], "count"),
        "api.artifact_hit_ratio": (
            c["artifact_hits"] / max(1, c["artifact_lookups"]), "ratio"),
        "api.hash_s": (inc["content_hash"], "s"),
        "api.store_get_s": (inc["store.get"], "s"),
        "api.store_put_s": (inc["store.put"], "s"),
        "api.runner_overhead_s": (
            program_wall - inc["compile_loop"] - sim_s - store_s, "s"),
        "scenarios.generate_s": (generate_s, "s"),
        "check.lint_findings": (c["lint_findings"], "count"),
        "check.oracle_mismatches": (c["oracle_mismatches"], "count"),
        "check.oracle_replays": (c["oracle_replays"], "count"),
    })
    for layer, seconds in tracer.self_times().items():
        m[f"self_s.{layer}"] = (seconds, "s")
    m["trace_overhead_frac"] = (overhead, "ratio")
    m["error_rate"] = (len(failures) / attempted, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "layers": list(LAYERS)})
    print(f"{args.workload} seed {args.seed}: untraced pass "
          f"{untraced_wall:.2f} s, traced pass {traced_wall:.2f} s "
          f"({len(tracer.spans)} spans in {spans_path.name}); "
          f"{c['loops']} loops compiled, {c['oracle_replays']} replayed "
          f"on the per-cycle engine")
    details = {"untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall, "check_s": check_s,
               "host_speed": speed.summary()}
    return _report(args, m, attempted, failures, details)


def capture(args, plan, labels) -> int:
    from hostenv import host_env
    from outcheck import record_digest, save_expected

    items, _stamps = _timed_pass(plan)
    digests = {}
    for label, item in _labelled(items, labels):
        if not hasattr(item, "loops"):
            print(f"FAILED {label}: raised {item.error_type}: "
                  f"{item.message}")
            return 1
        digests[label] = record_digest(item)
    save_expected(args.expected, args.workload, digests, host_env())
    print(f"captured {len(digests)} digests into {args.expected}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_sources()
    from outcheck import expected_path, load_expected
    from plans import SWEEP_SCENARIO_SEED, WORKLOADS, build_plan, spec_label

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {WORKLOADS}")
    scenario_seed = (SWEEP_SCENARIO_SEED if args.scenario_seed is None
                     else args.scenario_seed)
    plan, generate_s = build_plan(args.workload, args.seed, scenario_seed)
    labels = {spec.content_hash: spec_label(spec) for spec in plan.specs}
    if args.setup_probe is not None:
        print(f"{time.time() - args.setup_probe:.6f}")
        return 0
    if args.expected is None:
        args.expected = expected_path(args.workload)
    if args.capture:
        return capture(args, plan, labels)
    expected = load_expected(args.expected)
    if args.trace:
        return run_traced(args, plan, labels, expected, generate_s)
    return run_untraced(args, plan, labels, expected)


if __name__ == "__main__":
    sys.exit(main())
