"""Deterministic address traces.

An :class:`AddressTrace` evaluates the symbolic :class:`MemRef` of every
memory instruction in a graph against a per-space base-address map, making
it usable both by the profiler and the cycle-level simulator.  The same
graph with different ``seed``/``base`` parameters models the paper's
distinct *profile* and *execution* data sets (Table 1): affine references
keep their structure but shift origin, indirect references draw a
different pseudo-random stream.

Traces are deterministic functions of (seed, space, salt, iteration) —
repeated runs and replicated store instances (which share their MemRef)
see identical addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence

from repro.alias.memref import AccessPattern, MemRef
from repro.alias.profiles import TraceLike
from repro.errors import WorkloadError
from repro.ir.ddg import Ddg

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 step — a fast, well-distributed integer hash.

    The single bit-mixing primitive behind every determinism contract in
    the package: trace address streams here, and the scenario generator's
    draw streams (:mod:`repro.scenarios.rng`).
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _mix(seed: int, space_hash: int, salt: int, iteration: int) -> int:
    return splitmix64(
        seed ^ splitmix64(space_hash ^ splitmix64(salt ^ iteration))
    )


#: Gap between consecutive space base addresses; large enough that spaces
#: never overlap for any workload footprint.
SPACE_GAP = 1 << 22
#: Base addresses are aligned to block_bytes * max clusters so that the
#: home cluster of offset 0 is cluster 0 — the paper's "padding" that keeps
#: preferred-cluster information consistent across data sets.
BASE_ALIGN = 256
#: Per-space stagger (whole cache blocks) so different spaces start in
#: different cache sets — SPACE_GAP is a multiple of every module's set
#: span, so without the stagger all streams would collide in set 0.
SET_STAGGER = 256


class AddressTrace:
    """Concrete per-(instruction, iteration) addresses for one graph."""

    def __init__(
        self,
        ddg: Ddg,
        num_iterations: int,
        seed: int = 0,
        base_of: Optional[Dict[str, int]] = None,
        padded: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        padded:
            When true (the paper's default), space bases stay aligned
            across seeds, so an affine reference's home-cluster pattern is
            identical between profile and execution runs.  When false,
            each seed shifts bases by a different number of interleave
            units — modeling *unpadded* data where the profiled preferred
            cluster can be wrong at execution time.
        """
        if num_iterations < 0:
            raise WorkloadError("negative iteration count")
        self._ddg = ddg
        self.num_iterations = num_iterations
        self.seed = seed
        self._bases: Dict[str, int] = {}

        spaces = sorted(
            {v.mem.space for v in ddg.memory_instructions() if v.mem is not None}
        )
        for index, space in enumerate(spaces):
            if base_of and space in base_of:
                base = base_of[space]
            else:
                base = BASE_ALIGN + index * (SPACE_GAP + SET_STAGGER)
                if not padded:
                    shift = _mix(seed, hash(space) & _MASK64, 0, 0) % 64
                    base += shift * 4
            self._bases[space] = base
        self._space_hash = {
            space: splitmix64(sum(ord(c) << (8 * (i % 8)) for i, c in enumerate(space)))
            for space in spaces
        }

    # ------------------------------------------------------------------
    def base(self, space: str) -> int:
        try:
            return self._bases[space]
        except KeyError:
            raise WorkloadError(f"unknown space {space!r}") from None

    def address(self, iid: int, iteration: int) -> int:
        mem = self._ddg.node(iid).mem
        if mem is None:
            raise WorkloadError(f"instruction {iid} is not a memory op")
        base = self.base(mem.space)
        if mem.pattern is AccessPattern.AFFINE:
            return base + mem.offset + mem.stride * iteration
        slots = max(1, mem.spread // mem.width)
        pick = _mix(
            self.seed, self._space_hash[mem.space], mem.salt, iteration
        ) % slots
        return base + mem.offset + pick * mem.width

    def address_table(self, iid: int, iterations: int) -> Sequence[int]:
        """``address(iid, i)`` for every ``i < iterations``, in bulk.

        Affine references become a ``range`` (no per-iteration storage);
        indirect references evaluate the same :func:`_mix` hash as
        :meth:`address`.  The simulator builds one table per memory
        operation per run instead of calling :meth:`address` per access.
        """
        mem = self._ddg.node(iid).mem
        if mem is None:
            raise WorkloadError(f"instruction {iid} is not a memory op")
        start = self.base(mem.space) + mem.offset
        if mem.pattern is AccessPattern.AFFINE:
            if mem.stride:
                return range(start, start + mem.stride * iterations,
                             mem.stride)
            return [start] * iterations
        slots = max(1, mem.spread // mem.width)
        seed, space_hash = self.seed, self._space_hash[mem.space]
        return [
            start + _mix(seed, space_hash, mem.salt, i) % slots * mem.width
            for i in range(iterations)
        ]


def address_tables(
    ddg: Ddg, trace: TraceLike, iterations: int
) -> Dict[int, Sequence[int]]:
    """Every memory operation's addresses, built once per simulated run:
    ``tables[iid][iteration] == trace.address(iid, iteration)`` for
    ``iteration < iterations``.

    An :class:`AddressTrace` evaluates each reference in bulk
    (:meth:`AddressTrace.address_table`); any other :class:`TraceLike`
    goes through its own ``address``.  Operations with equal ``MemRef``
    values (replicated store instances) share one table.  The
    simulator's issue path and its coherence checker both read these
    tables.
    """
    tables: Dict[int, Sequence[int]] = {}
    if not isinstance(trace, AddressTrace):
        for instr in ddg.memory_instructions():
            tables[instr.iid] = [
                trace.address(instr.iid, i) for i in range(iterations)
            ]
        return tables
    by_ref: Dict[Optional[MemRef], Sequence[int]] = {}
    for instr in ddg.memory_instructions():
        table = by_ref.get(instr.mem)
        if table is None:
            table = by_ref[instr.mem] = trace.address_table(
                instr.iid, iterations
            )
        tables[instr.iid] = table
    return tables


def trace_factory(
    num_iterations: int,
    seed: int = 0,
    base_of: Optional[Dict[str, int]] = None,
    padded: bool = True,
) -> Callable[[Ddg], AddressTrace]:
    """A factory suitable for :func:`repro.sched.pipeline.compile_loop`'s
    ``trace_factory`` argument and for building execution traces.

    For the common keyable case (no explicit base map), prefer
    :func:`cached_trace_spec` — its :class:`TraceSpec` carries a content
    key, which is what lets the staged pipeline cache profiling results
    in the artifact store.
    """

    def build(ddg: Ddg) -> AddressTrace:
        return AddressTrace(
            ddg,
            num_iterations=num_iterations,
            seed=seed,
            base_of=base_of,
            padded=padded,
        )

    return build


@dataclass(frozen=True)
class TraceSpec:
    """A declarative, *keyed* trace factory.

    Callable like the closures :func:`trace_factory` returns, but frozen
    and content-addressable: :attr:`key` names the trace's content, so
    the staged pipeline (:mod:`repro.sched.stages`) can cache profiling
    results derived from it.  Explicit ``base_of`` maps are not
    representable here — they have no canonical key; use
    :func:`trace_factory` for those (profiling then simply isn't
    artifact-cached).
    """

    num_iterations: int
    seed: int = 0
    padded: bool = True

    @property
    def key(self) -> str:
        """Canonical content key of the address streams this spec yields."""
        return (
            f"iters{self.num_iterations}-seed{self.seed}"
            f"-padded{int(self.padded)}"
        )

    def __call__(self, ddg: Ddg) -> AddressTrace:
        return AddressTrace(
            ddg,
            num_iterations=self.num_iterations,
            seed=self.seed,
            padded=self.padded,
        )


@lru_cache(maxsize=None)
def cached_trace_spec(num_iterations: int, seed: int = 0,
                      padded: bool = True) -> TraceSpec:
    """Memoized :class:`TraceSpec` construction.

    The run loop historically rebuilt an identical profile-trace callable
    for every loop of every variant from the same
    ``(PROFILE_ITERATIONS, profile_seed)`` pair; this returns the one
    frozen spec per distinct ``(iterations, seed, padded)`` triple
    instead, so trace identity is stable across the whole variant cross
    (and the artifact layer above it caches the actual profiling work).
    """
    return TraceSpec(num_iterations, seed, padded)
