"""In-memory span tracing around repro's layer boundaries.

:class:`LayerProbe` wraps the public functions at each layer boundary
from outside the program, for the duration of one traced pass:

* ``sched`` -- ``compile_loop`` (as ``repro.api.core`` calls it), the
  stage functions ``repro.sched.stages.run_<stage>``,
  ``modulo_schedule`` on the latency ladder, ``minimum_ii``, and a call
  counter on ``ReservationTable.fits``;
* ``sim`` -- ``simulate`` (as ``repro.api.core`` calls it), by model;
* ``api`` -- one span per executed spec, ``RunSpec.content_hash`` and
  the result and artifact stores of the pass;
* ``check`` -- schedule lint of every compiled loop and a seeded sample
  of loops replayed on the per-cycle reference engine.

Spans are ``[name, layer, start, end, parent, spec]`` rows kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.api import RunSpec, core, runner
from repro.check.schedule_lint import lint_compilation
from repro.errors import SchedulingError
from repro.sched import latency, modulo, stages
from repro.sched.schedule import ReservationTable
from repro.sim.stats import AccessType

from plans import spec_label

STAGES = ("unroll", "disambiguate", "profile", "coherence", "assign",
          "copies", "schedule", "postpass")
MODELS = ("snooping", "dls", "directory")
LAYERS = ("sched", "sim", "api", "check")


class Tracer:
    """A flat list of spans; the open-span stack gives each its parent."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.spec: Optional[str] = None

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.spec])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def inclusive(self) -> Dict[str, float]:
        """Total seconds inside spans of each name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, _layer, start, end, _parent, _spec in self.spans:
            totals[name] += end - start
        return totals

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer not covered by child spans."""
        child: Dict[int, float] = defaultdict(float)
        for _name, _layer, start, end, parent, _spec in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for index, (_n, layer, start, end, _p, _s) in enumerate(self.spans):
            totals[layer] += end - start - child[index]
        return totals

    def write(self, path: Path, meta: Dict) -> None:
        rows = [[name, layer, round(start - self.origin, 7),
                 round(end - self.origin, 7), parent, spec]
                for name, layer, start, end, parent, spec in self.spans]
        payload = {"meta": meta,
                   "fields": ["name", "layer", "start_s", "end_s",
                              "parent", "spec"],
                   "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")),
                        encoding="utf-8")


class LayerProbe:
    """Installs the layer wrappers on entry and removes them on exit."""

    def __init__(self, tracer: Tracer,
                 oracle_pairs: Iterable[Tuple[str, int]]) -> None:
        self.tracer = tracer
        self.oracle_pairs = set(oracle_pairs)
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._loop_ordinal = 0

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerProbe":
        t = self.tracer
        self._patch(runner, "execute_spec",
                    self._spec_wrapper(runner.execute_spec))
        self._patch(core, "compile_loop",
                    self._compile_wrapper(core.compile_loop))
        self._patch(core, "simulate", self._simulate_wrapper(core.simulate))
        for stage in STAGES:
            fn_name = f"run_{stage}"
            self._patch(stages, fn_name,
                        t.wrap(getattr(stages, fn_name), f"stage.{stage}",
                               "sched"))
        self._patch(latency, "modulo_schedule",
                    self._modulo_wrapper(latency.modulo_schedule))
        self._patch(modulo, "minimum_ii",
                    self._counted(t.wrap(modulo.minimum_ii, "minimum_ii",
                                         "sched"), "mii_calls"))
        self._patch(ReservationTable, "fits",
                    self._counted(ReservationTable.fits, "fits_calls"))
        hash_fget = RunSpec.__dict__["content_hash"].fget
        self._patch(RunSpec, "content_hash",
                    property(t.wrap(hash_fget, "content_hash", "api")))
        return self

    def __exit__(self, *_exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def watch_stores(self, store, artifacts) -> None:
        """Wrap one pass's result and artifact stores (instance-level, so
        nothing needs restoring)."""
        t = self.tracer
        store.get = t.wrap(store.get, "store.get", "api")
        store.put = t.wrap(store.put, "store.put", "api")
        artifacts.put = t.wrap(artifacts.put, "artifact.put", "api")
        get = t.wrap(artifacts.get, "artifact.get", "api")

        def artifact_get(key):
            payload = get(key)
            self.counts["artifact_lookups"] += 1
            self.counts["artifact_hits"] += payload is not None
            return payload
        artifacts.get = artifact_get

    # -- wrappers ------------------------------------------------------
    def _counted(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spec_wrapper(self, fn):
        inner = self.tracer.wrap(fn, "spec", "api")

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            self.tracer.spec = spec_label(spec)
            self._loop_ordinal = 0
            try:
                return inner(spec, *args, **kwargs)
            finally:
                self.tracer.spec = None
        return wrapper

    def _compile_wrapper(self, fn):
        inner = self.tracer.wrap(fn, "compile_loop", "sched")
        lint = self.tracer.wrap(lint_compilation, "lint", "check")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["loops"] += 1
            self.counts["ii_sum"] += result.ii
            self.counts["length_sum"] += result.schedule.length
            self.counts["lint_findings"] += len(lint(result))
            return result
        return wrapper

    def _modulo_wrapper(self, fn):
        inner = self.tracer.wrap(fn, "modulo_schedule", "sched")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["modulo_calls"] += 1
            try:
                return inner(*args, **kwargs)
            except SchedulingError:
                self.counts["modulo_failures"] += 1
                raise
        return wrapper

    def _simulate_wrapper(self, fn):
        tracer = self.tracer
        inner = {m: tracer.wrap(fn, f"simulate.{m}", "sim") for m in MODELS}
        reference = tracer.wrap(fn, "oracle", "check")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = kwargs.get("model", "snooping")
            result = inner[model](*args, **kwargs)
            stats = result.stats
            c = self.counts
            c["sim_cycles"] += stats.total_cycles
            c["sim_stall_cycles"] += stats.stall_cycles
            c["sim_issued_ops"] += stats.issued_ops
            c["sim_bus_transfers"] += stats.bus_transfers
            c["sim_accesses"] += stats.total_accesses
            c["sim_local_hits"] += stats.accesses[AccessType.LOCAL_HIT]
            key = (tracer.spec, self._loop_ordinal)
            self._loop_ordinal += 1
            if key in self.oracle_pairs:
                ref = reference(*args, **dict(kwargs, engine="cycles"))
                c["oracle_replays"] += 1
                if (ref.stats.to_dict() != stats.to_dict()
                        or _violations(ref) != _violations(result)):
                    c["oracle_mismatches"] += 1
            return result
        return wrapper


def _violations(result) -> int:
    return result.violations.total if result.violations else 0
