"""Pluggable memory-system models.

This package turns the memory protocol into a first-class axis: a
:class:`MemoryModel` names one protocol + placement scheme, owns the
construction of its :class:`~repro.sim.memory.MemorySystem` subclass,
and points at the matching exhaustive-check model and conformance
address scheme.  Registered models:

``snooping``
    The paper's protocol, unchanged (the default; byte-identical to the
    pre-registry simulator — the goldens pin this).
``dls``
    Directoryless shared last-level cache: every block lives in exactly
    one address-hashed home slice; no per-cluster copies, hence no
    invalidation broadcast and no Attraction Buffers.
``directory``
    Distributed directory: a per-block *home* answers where the block
    lives and forwards the request to the *owner* slice, with every hop
    (request -> home -> owner -> requester) accounted as its own bus
    message kind.

``named_model()`` resolves a registry name; the name rides in
:class:`~repro.api.spec.RunSpec` (and the ``-mm<model>`` machine-name
suffix), so content hashes distinguish models.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import ConfigError
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import MemorySystem, TraceCallback
from repro.sim.stats import SimStats

#: The model every entry point defaults to; its behaviour is pinned by
#: the goldens.
DEFAULT_MODEL = "snooping"


class MemoryModel:
    """One memory-system model: protocol + placement + check mapping.

    Subclasses define the class attributes and override :meth:`build`
    (and, for a non-interleaved placement, :meth:`conformance_address`).
    """

    #: registry key; also the ``--model`` / ``-mm`` spelling
    name: str = ""
    #: one-line human description for ``repro list``
    description: str = ""
    #: True when the model keeps per-cluster copies that Attraction
    #: Buffers can extend (only the snooping protocol does)
    supports_attraction: bool = True

    def build(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> MemorySystem:
        """Construct this model's memory system for one run."""
        raise NotImplementedError

    def check_model(self) -> type:
        """The matching :mod:`repro.check` protocol-model class.

        Imported lazily: the check layer depends on the sim layer, not
        the other way around.
        """
        from repro.check.variants import named_check_model

        return named_check_model(self.name)

    def conformance_address(self, machine: MachineConfig, sb: int) -> int:
        """An address whose block id is ``sb`` and whose serving cluster
        matches the check model's ``home(sb)`` under ``machine``."""
        return sb * machine.cache.block_bytes

    def _reject_attraction(self, machine: MachineConfig) -> None:
        if machine.attraction_buffer is not None:
            raise ConfigError(
                f"memory model {self.name!r} keeps no per-cluster copies; "
                f"Attraction Buffers are not supported"
            )


#: name -> registered model instance
MODELS: Dict[str, MemoryModel] = {}


def register_model(model: MemoryModel) -> MemoryModel:
    if not model.name:
        raise ConfigError("memory model needs a non-empty name")
    if model.name in MODELS:
        raise ConfigError(f"memory model {model.name!r} already registered")
    MODELS[model.name] = model
    return model


def model_names() -> Tuple[str, ...]:
    return tuple(sorted(MODELS))


def named_model(name: str) -> MemoryModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown memory model {name!r}; registered: "
            + ", ".join(model_names())
        ) from None


# Registration happens at import time; the submodules call
# register_model() themselves.
from repro.sim.models import snooping as _snooping  # noqa: E402,F401
from repro.sim.models import dls as _dls  # noqa: E402,F401
from repro.sim.models import directory as _directory  # noqa: E402,F401

__all__ = [
    "DEFAULT_MODEL",
    "MODELS",
    "MemoryModel",
    "model_names",
    "named_model",
    "register_model",
]
