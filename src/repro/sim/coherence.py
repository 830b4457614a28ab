"""Coherence violation detection.

The simulation is trace-driven, so — like the paper's (section 4.1,
footnote) — values are always "correct"; what we detect is every event
where real hardware would *not* have been: a load observing a memory
version different from the one sequential program order prescribes, or a
store application inverting program order at its home module.

Versions are ``(iteration, seq)`` pairs stamped by stores; for any single
address they are totally ordered by program order.  Before simulation the
checker walks the whole access stream in sequential order and records, for
every load instance, the version of the last store instance that wrote its
address — the *expected* version.  At run time the memory system reports
what each load actually observed.

Observation points are *untimed*: the memory system reports each load at
its serialization point and each write inversion at store application,
as side effects of access flows and event deliveries.  Where that
serialization point sits depends on the memory model
(:mod:`repro.sim.models`) — a local/attracted probe, a home-slice
response or a fill replay under snooping and DLS, the owner slice's
service of a possibly-forwarded request under the distributed
directory — but the checker itself is model-agnostic: it compares
versions, not routes.  The event-skipping executor only fast-forwards
cycles on which no flow advances, so the sequence of observations — and
hence every violation count — is identical under both simulation
engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.ddg import Ddg

Version = Tuple[int, int]


def classify_observation(
    expected: Optional[Version], observed: Optional[Version]
) -> Optional[str]:
    """Classify one load observation against its oracle.

    Returns ``None`` when the load saw exactly the prescribed version,
    ``"stale"`` when it saw an older one (a missed store — the hazard of
    the paper's Figure 2) and ``"future"`` when it saw a younger one (a
    broken memory-anti dependence).  ``None`` versions mean the initial
    memory contents, older than every store.  Pure and total — shared by
    :class:`CoherenceChecker` and the conformance bridge
    (:mod:`repro.check.conformance`).
    """
    if observed == expected:
        return None
    if expected is None or (observed is not None and observed > expected):
        return "future"
    return "stale"


@dataclass
class ViolationCounts:
    stale_reads: int = 0      # load observed an older version than expected
    future_reads: int = 0     # load observed a younger version (MA broken)
    write_inversions: int = 0  # stores applied out of program order

    @property
    def total(self) -> int:
        return self.stale_reads + self.future_reads + self.write_inversions


class CoherenceChecker:
    """Oracle for sequential memory semantics over one simulated loop.

    Granularity note: versions are tracked per exact access address; the
    workload catalog only aliases accesses of identical address and width,
    mirroring the aligned media kernels of the paper's benchmarks.
    """

    def __init__(
        self,
        ddg: Ddg,
        addresses: Mapping[int, Sequence[int]],
        iterations: int,
    ) -> None:
        """``addresses`` is the run's per-operation address table
        (``addresses[iid][iteration]``, see
        :func:`repro.workloads.traces.address_tables`)."""
        self.counts = ViolationCounts()
        #: load iid -> expected version per iteration
        self._expected: Dict[int, List[Optional[Version]]] = {}
        self._precompute(ddg, addresses, iterations)

    # ------------------------------------------------------------------
    def _precompute(
        self,
        ddg: Ddg,
        addresses: Mapping[int, Sequence[int]],
        iterations: int,
    ) -> None:
        """Sequential walk of all memory instances in program order.

        Replicated store instances stand for a single logical store; only
        the original (``iid == replica_group``) participates in the walk.
        """
        ops = [
            v
            for v in ddg.memory_instructions()
            if v.replica_group is None or v.replica_group == v.iid
        ]
        ops.sort(key=lambda v: (v.seq, v.iid))
        walk: List[
            Tuple[Sequence[int], int, Optional[List[Optional[Version]]]]
        ] = []
        for op in ops:
            table = addresses[op.iid]
            if op.is_store:
                walk.append((table, op.seq, None))
            else:
                expected: List[Optional[Version]] = [None] * iterations
                self._expected[op.iid] = expected
                walk.append((table, 0, expected))
        last_writer: Dict[int, Version] = {}
        for iteration in range(iterations):
            for table, seq, expected in walk:
                if expected is None:
                    last_writer[table[iteration]] = (iteration, seq)
                else:
                    expected[iteration] = last_writer.get(table[iteration])

    # ------------------------------------------------------------------
    def expected(self, load_iid: int, iteration: int) -> Optional[Version]:
        per_load = self._expected.get(load_iid)
        if per_load is None or not 0 <= iteration < len(per_load):
            return None
        return per_load[iteration]

    def observe_load(
        self, load_iid: int, iteration: int, observed: Optional[Version]
    ) -> bool:
        """Report what a load actually saw; returns True on violation.

        For replicated graphs callers pass the *original* iid (loads are
        never replicated, so this is only a documentation point).
        """
        per_load = self._expected.get(load_iid)
        if per_load is not None and 0 <= iteration < len(per_load):
            expected = per_load[iteration]
        else:
            expected = None
        if observed == expected:
            return False
        if classify_observation(expected, observed) == "future":
            self.counts.future_reads += 1
        else:
            self.counts.stale_reads += 1
        return True

    def observe_write_inversion(self) -> None:
        """The memory system saw a store apply under a younger version."""
        self.counts.write_inversions += 1

    @property
    def total_violations(self) -> int:
        return self.counts.total
