"""DLS: directoryless shared last-level cache.

Every cache block lives in exactly one *home slice*, chosen by a
multiplicative hash of the block number — there are no per-cluster
copies, so there is nothing to invalidate and no broadcast.  A load or
store is local exactly when its cluster is the block's home slice;
otherwise it travels there as an ordinary request and is served at the
slice's serialization point.  The protocol skeleton (request/response,
home-side MSHR combining) is the snooping one — only the placement map
differs — which is why :class:`DLSMemorySystem` overrides a single
routing hook.

Because a block has exactly one resident copy, Attraction Buffers (which
cache *extra* copies) are meaningless here and are rejected at build
time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.config import MachineConfig
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import MemorySystem, SubblockKey, TraceCallback
from repro.sim.models import MemoryModel, register_model
from repro.sim.stats import SimStats

#: Knuth's multiplicative constant; spreads consecutive blocks across
#: slices without the modulo-striding artifacts of ``block % N``.
_HASH_MULTIPLIER = 2654435761


def dls_home(block: int, num_clusters: int) -> int:
    """The hashed home slice of ``block`` (shared with the check model)."""
    return ((block * _HASH_MULTIPLIER) >> 8) % num_clusters


class DLSMemorySystem(MemorySystem):
    """Snooping flows over block-granular, hash-placed subblocks."""

    def _route(self, addr: int) -> Tuple[int, SubblockKey]:
        block = addr // self._block_bytes
        home = dls_home(block, self._num_clusters)
        return home, (block, home)


class DLSModel(MemoryModel):
    name = "dls"
    description = (
        "directoryless shared LLC: blocks hash to a single home slice; "
        "no copies, no invalidation broadcast"
    )
    supports_attraction = False

    def build(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> MemorySystem:
        self._reject_attraction(machine)
        return DLSMemorySystem(machine, stats, checker, trace)


MODEL = register_model(DLSModel())
