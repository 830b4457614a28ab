"""Declarative run specifications.

A :class:`RunSpec` names one unit of work — *compile every loop (or one
loop) of benchmark B under variant C/H on machine M, then simulate* —
without executing anything.  Specs are frozen, hashable, and carry a
stable *content hash* (:attr:`RunSpec.content_hash`) computed from the
spec fields plus a fingerprint of the fully-resolved machine
configuration, so two processes (or two interpreter versions) agree on
the cache key for the same work.

A :class:`Plan` is an ordered, de-duplicated sequence of specs with
grid/sweep constructors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.arch.config import MachineConfig, named_config, split_model_suffix
from repro.errors import ConfigError
from repro.hashing import digest, jsonable
from repro.sched.pipeline import CoherenceMode, Heuristic

#: Benchmarks on the figures' x-axes, in the paper's order.
EVALUATED: Tuple[str, ...] = (
    "epicdec", "g721dec", "g721enc", "gsmdec", "gsmenc", "jpegdec",
    "jpegenc", "mpeg2dec", "pegwitdec", "pegwitenc", "pgpdec", "pgpenc",
    "rasta",
)

#: Iterations used for preferred-cluster profiling (the profile data set).
PROFILE_ITERATIONS = 256


def default_scale() -> float:
    """Global iteration scale; override with ``REPRO_SCALE`` (e.g. 0.25
    for quick runs, 1.0 for the full published numbers).

    Raises :class:`~repro.errors.ConfigError` when ``REPRO_SCALE`` is not
    a positive finite number.
    """
    raw = os.environ.get("REPRO_SCALE", "0.5")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"invalid REPRO_SCALE {raw!r}: not a number"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(
            f"invalid REPRO_SCALE {raw!r}: must be a positive finite number"
        )
    return value


@dataclass(frozen=True)
class Variant:
    """One (coherence solution, cluster heuristic) combination."""

    coherence: CoherenceMode
    heuristic: Heuristic

    @property
    def key(self) -> str:
        return f"{self.coherence.value}/{self.heuristic.value}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = {CoherenceMode.NONE: "free", CoherenceMode.MDC: "MDC",
                 CoherenceMode.DDGT: "DDGT"}
        return f"{names[self.coherence]}({self.heuristic.value})"


FREE_PREF = Variant(CoherenceMode.NONE, Heuristic.PREFCLUS)
FREE_MIN = Variant(CoherenceMode.NONE, Heuristic.MINCOMS)
MDC_PREF = Variant(CoherenceMode.MDC, Heuristic.PREFCLUS)
MDC_MIN = Variant(CoherenceMode.MDC, Heuristic.MINCOMS)
DDGT_PREF = Variant(CoherenceMode.DDGT, Heuristic.PREFCLUS)
DDGT_MIN = Variant(CoherenceMode.DDGT, Heuristic.MINCOMS)

ALL_VARIANTS: Tuple[Variant, ...] = (
    FREE_PREF, FREE_MIN, MDC_PREF, MDC_MIN, DDGT_PREF, DDGT_MIN,
)

#: The four bars of Figures 7 and 9, in the paper's order.
FIGURE7_BARS: Tuple[Variant, ...] = (MDC_PREF, MDC_MIN, DDGT_PREF, DDGT_MIN)


def parse_variant(key: Union[str, Variant]) -> Variant:
    """Parse a ``"coherence/heuristic"`` key (e.g. ``"mdc/prefclus"``)."""
    if isinstance(key, Variant):
        return key
    parts = key.split("/")
    if len(parts) != 2:
        raise ConfigError(
            f"invalid variant {key!r}: expected 'coherence/heuristic' "
            f"(e.g. 'mdc/prefclus')"
        )
    try:
        coherence = CoherenceMode(parts[0])
    except ValueError:
        raise ConfigError(
            f"invalid coherence mode {parts[0]!r}; expected one of "
            f"{sorted(m.value for m in CoherenceMode)}"
        ) from None
    try:
        heuristic = Heuristic(parts[1])
    except ValueError:
        raise ConfigError(
            f"invalid heuristic {parts[1]!r}; expected one of "
            f"{sorted(h.value for h in Heuristic)}"
        ) from None
    return Variant(coherence, heuristic)


# ----------------------------------------------------------------------
# Canonical hashing helpers (shared discipline: repro.hashing)
# ----------------------------------------------------------------------
#: Backwards-compatible aliases — the canonical helpers moved to
#: :mod:`repro.hashing` so layers below the API (stage keys in
#: :mod:`repro.sched.stages`) share the same digest discipline.
_jsonable = jsonable
_digest = digest


def machine_fingerprint(config: MachineConfig) -> str:
    """Stable hash of *every* field of a machine configuration.

    Unlike ``config.name``, the fingerprint distinguishes configurations
    that share a name but differ structurally (e.g. a config before and
    after :meth:`~repro.arch.config.MachineConfig.with_attraction_buffers`
    or with a different interleave factor).  Equivalent to
    :meth:`MachineConfig.fingerprint`.
    """
    return config.fingerprint()


def spec_cache_key(
    benchmark: str,
    variant: str,
    machine: MachineConfig,
    scale: float,
    loop: Optional[str],
    seeds: Optional[Tuple[int, int]],
    model: str = "snooping",
) -> str:
    """The canonical cache key for one unit of work.

    ``machine`` must be the *effective* configuration — benchmark
    interleave and Attraction Buffers already applied — so two keys
    collide only for byte-identical work.  Single source of truth for
    both :attr:`RunSpec.content_hash` and the legacy ``run_benchmark``
    shim's ad-hoc-config path.

    The memory model enters the digest only when it is not the default
    snooping protocol, so every pre-model cache entry keeps its key.
    """
    payload = {
        "benchmark": benchmark,
        "variant": variant,
        "machine": machine_fingerprint(machine),
        "scale": scale,
        "loop": loop,
        "seeds": seeds,
        "profile_iterations": PROFILE_ITERATIONS,
    }
    if model != "snooping":
        payload["model"] = model
    return _digest(payload)


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One declarative unit of work (frozen, content-hashable).

    Fields:

    * ``benchmark`` — a catalog name (see ``repro.workloads``);
    * ``variant`` — a ``"coherence/heuristic"`` key, e.g. ``"mdc/prefclus"``;
    * ``machine`` — a *named* machine configuration (``"baseline"``,
      ``"nobal+mem"``, ``"nobal+reg"``);
    * ``attraction`` — enable 16-entry 2-way Attraction Buffers;
    * ``scale`` — iteration scale (``None`` resolves ``REPRO_SCALE`` /
      0.5 at construction time, so the spec is self-contained);
    * ``loop`` — restrict to one loop of the benchmark (``None`` = all);
    * ``seeds`` — ``(profile_seed, execute_seed)`` override (``None`` =
      the benchmark's calibrated seeds);
    * ``model`` — the memory model simulated (see
      :mod:`repro.sim.models`); also accepted as a lexical
      ``-mm<model>`` suffix on ``machine`` (e.g. ``"baseline-mmdls"``),
      which is split off at construction time.
    """

    benchmark: str
    variant: str = "mdc/prefclus"
    machine: str = "baseline"
    attraction: bool = False
    scale: Optional[float] = None
    loop: Optional[str] = None
    seeds: Optional[Tuple[int, int]] = None
    model: str = "snooping"

    def __post_init__(self) -> None:
        variant = parse_variant(self.variant)
        object.__setattr__(self, "variant", variant.key)
        machine, suffix_model = split_model_suffix(self.machine)
        if suffix_model is not None:
            if self.model not in ("snooping", suffix_model):
                raise ConfigError(
                    f"conflicting memory models: machine suffix "
                    f"-mm{suffix_model} vs model={self.model!r}"
                )
            object.__setattr__(self, "machine", machine)
            object.__setattr__(self, "model", suffix_model)
        from repro.sim.models import named_model

        named_model(self.model)  # fail fast on unknown models
        scale = self.scale
        if scale is None:
            scale = default_scale()
        scale = float(scale)
        if not math.isfinite(scale) or scale <= 0:
            raise ConfigError(
                f"invalid scale {self.scale!r}: must be a positive finite "
                f"number"
            )
        object.__setattr__(self, "scale", scale)
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(self.seeds))

    # ------------------------------------------------------------------
    @property
    def variant_obj(self) -> Variant:
        return parse_variant(self.variant)

    def resolved_machine(self) -> MachineConfig:
        """The effective machine this spec runs on: the named config with
        the benchmark's interleave factor and, when requested, Attraction
        Buffers applied."""
        return resolve_machine(self)

    @property
    def content_hash(self) -> str:
        """Stable cache key: spec fields + effective-machine fingerprint.

        Hashing the *resolved* machine (after the benchmark interleave and
        ``with_attraction_buffers()`` are applied) guarantees two specs
        share a key only when they run byte-identical work.  Computed once
        per (frozen) spec and kept on the instance.
        """
        key = self.__dict__.get("_content_hash")
        if key is None:
            key = spec_cache_key(
                benchmark=self.benchmark,
                variant=self.variant,
                machine=self.resolved_machine(),
                scale=self.scale,
                loop=self.loop,
                seeds=self.seeds,
                model=self.model,
            )
            object.__setattr__(self, "_content_hash", key)
        return key

    @property
    def frontend_key(self) -> str:
        """Key of the variant-independent compilation front end.

        Two specs with equal ``frontend_key`` share their unrolling,
        disambiguation and preferred-cluster profiling verbatim — the
        paper's whole 6-way coherence × heuristic cross collapses onto
        one key.  ``scale`` and ``model`` are deliberately absent: they
        only shape the simulated execution, which is back-end work.  The
        :class:`~repro.api.runner.Runner` groups plan misses by this key
        so sibling variants land in the same worker and hit each other's
        warm artifacts.
        """
        return _digest({
            "benchmark": self.benchmark,
            "machine": machine_fingerprint(self.resolved_machine()),
            "loop": self.loop,
            "seeds": self.seeds,
            "profile_iterations": PROFILE_ITERATIONS,
        })

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "machine": self.machine,
            "attraction": self.attraction,
            "scale": self.scale,
            "loop": self.loop,
            "seeds": list(self.seeds) if self.seeds is not None else None,
        }
        if self.model != "snooping":
            data["model"] = self.model
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        seeds = data.get("seeds")
        return cls(
            benchmark=data["benchmark"],
            variant=data.get("variant", "mdc/prefclus"),
            machine=data.get("machine", "baseline"),
            attraction=bool(data.get("attraction", False)),
            scale=data.get("scale"),
            loop=data.get("loop"),
            seeds=tuple(seeds) if seeds is not None else None,
            model=data.get("model", "snooping"),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = []
        if self.machine != "baseline":
            extras.append(self.machine)
        if self.model != "snooping":
            extras.append(f"model={self.model}")
        if self.attraction:
            extras.append("+ab")
        if self.loop:
            extras.append(f"loop={self.loop}")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return f"{self.benchmark}:{self.variant}@{self.scale:g}{suffix}"


def resolve_machine(spec: RunSpec) -> MachineConfig:
    """Resolve a spec's named machine into its effective configuration."""
    from repro.workloads.catalog import get_benchmark

    machine = get_benchmark(spec.benchmark).machine(named_config(spec.machine))
    if spec.attraction:
        machine = machine.with_attraction_buffers()
    return machine


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
VariantLike = Union[str, Variant]


def _as_tuple(value, scalar_types) -> Tuple:
    if value is None:
        return (None,)
    if isinstance(value, scalar_types):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class Plan:
    """An ordered, de-duplicated sequence of :class:`RunSpec` objects.

    Plans compose with ``+`` and carry their own content hash (the hash
    of their specs' hashes, order-sensitive).
    """

    specs: Tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        unique = []
        for spec in self.specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)
        object.__setattr__(self, "specs", tuple(unique))

    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        benchmarks: Union[str, Iterable[str], None] = None,
        variants: Union[VariantLike, Iterable[VariantLike]] = ALL_VARIANTS,
        machines: Union[str, Iterable[str]] = "baseline",
        attraction: Union[bool, Iterable[bool]] = False,
        scale: Optional[float] = None,
        loops: Union[str, Iterable[Optional[str]], None] = None,
        seeds: Optional[Tuple[int, int]] = None,
        models: Union[str, Iterable[str]] = "snooping",
    ) -> "Plan":
        """Cartesian sweep, in deterministic (benchmark-major) order.

        Every argument accepts either a scalar or an iterable; the
        product iterates benchmarks, then machines, then memory models,
        then attraction settings, then variants, then loops.
        """
        bench_names = (
            tuple(EVALUATED) if benchmarks is None
            else _as_tuple(benchmarks, str)
        )
        variant_keys = tuple(
            parse_variant(v).key
            for v in _as_tuple(variants, (str, Variant))
        )
        machine_names = _as_tuple(machines, str)
        ab_settings = _as_tuple(attraction, bool)
        loop_names = _as_tuple(loops, str)
        model_names = _as_tuple(models, str)
        specs = [
            RunSpec(
                benchmark=bench,
                variant=variant,
                machine=machine,
                attraction=ab,
                scale=scale,
                loop=loop,
                seeds=seeds,
                model=model,
            )
            for bench in bench_names
            for machine in machine_names
            for model in model_names
            for ab in ab_settings
            for variant in variant_keys
            for loop in loop_names
        ]
        return cls(tuple(specs))

    @classmethod
    def single(cls, spec: RunSpec) -> "Plan":
        return cls((spec,))

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __add__(self, other: "Plan") -> "Plan":
        if not isinstance(other, Plan):
            return NotImplemented
        return Plan(self.specs + other.specs)

    @property
    def content_hash(self) -> str:
        return _digest([spec.content_hash for spec in self.specs])

    def to_dicts(self) -> Sequence[Dict[str, object]]:
        return [spec.to_dict() for spec in self.specs]

    def describe(self) -> str:
        lines = [f"plan {self.content_hash} ({len(self)} specs):"]
        lines.extend(f"  {spec}" for spec in self.specs)
        return "\n".join(lines)
