"""The paper's protocol as the default registered memory model.

Word-interleaved homes (:mod:`repro.sim.interleave`), remote requests
over the snooping bus fabric, home-side MSHR combining, optional
Attraction Buffers.  ``build()`` returns the plain
:class:`~repro.sim.memory.MemorySystem` — the registry wrapper adds no
behaviour, which is what keeps the refactor byte-identical to the
goldens.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.config import MachineConfig
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import MemorySystem, TraceCallback
from repro.sim.models import MemoryModel, register_model
from repro.sim.stats import SimStats


class SnoopingModel(MemoryModel):
    name = "snooping"
    description = (
        "paper baseline: word-interleaved homes, snooping bus, "
        "remote-request buffers (+ optional Attraction Buffers)"
    )
    supports_attraction = True

    def build(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> MemorySystem:
        return MemorySystem(machine, stats, checker, trace)

    def conformance_address(self, machine: MachineConfig, sb: int) -> int:
        # Distinct blocks whose interleaved home is ``sb % clusters`` —
        # the check model's home map for this protocol.
        return (sb * machine.cache.block_bytes
                + (sb % machine.num_clusters) * machine.interleave_bytes)


MODEL = register_model(SnoopingModel())
