"""Rebuildable scenario specs: the bridge between checkpoints and systems.

A checkpoint can only be resumed if the run it interrupted can be rebuilt
from a declarative description.  A :class:`ScenarioSpec` is that
description -- a registered scenario name, a seed and free-form params --
and the registry maps names to *builders* that wire a system (topology,
devices, protocols, fault schedule) **without running it**.  The
persistence runner then drives the run, journals it, checkpoints it and
replays it.

The registry record is the single owner of everything else the repo
knows about a scenario: :func:`register_scenario` stores one frozen
:class:`Scenario` (builder, plane, variants, quick params, monitored,
gate) and the catalog, the CLI's choices and ``--quick``, and the
traffic/security gates all read it.  Each plane's scenario module
registers its own next to the ``prepare_*`` functions they wrap.

Builders must be deterministic functions of ``(seed, params)``: two
invocations with the same spec must produce systems whose runs are
bit-identical.  Everything in the repo already obeys this discipline
(seeded RNG streams, deterministic kernel), so builders just have to
avoid wall-clock and ambient randomness.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.schema import Field, check

#: A spec on disk: checkpoints, journal headers, federation manifests.
SCENARIO_SPEC = Field("object", fields={
    "name": Field("string"),
    "seed": Field("integer", required=False, null=True),
    "params": Field("object", required=False),
})


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative identity of a run: rebuildable, hashable, journal-able."""

    name: str
    seed: Optional[int] = None   # None -> the scenario's canonical seed
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; a :class:`~repro.schema.SchemaError`
        (a ``ValueError``) for anything not of :data:`SCENARIO_SPEC`'s shape."""
        fields = check(data, SCENARIO_SPEC)
        return cls(name=fields["name"], seed=fields.get("seed"),
                   params=dict(fields.get("params", {})))


@dataclass
class PreparedRun:
    """A fully wired, not-yet-run system plus its run horizon.

    ``aux`` carries scenario-specific live objects (MAPE loops, protocol
    nodes) that tests and KPI reporting may want after the run.
    """

    system: Any
    horizon: float
    aux: Dict[str, Any] = field(default_factory=dict)


ScenarioBuilder = Callable[[Optional[int], Dict[str, Any]], PreparedRun]


@dataclass(frozen=True)
class GateVerdict:
    """What a gate concluded from one result per variant."""

    ok: bool
    summary: str                    # the parenthesised part of the gate line
    failures: Tuple[str, ...] = ()
    #: Spec params of the variant to re-run under a flight recorder, and
    #: the trigger detail to pin on it, when the gate failed.
    incident_params: Dict[str, Any] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Gate:
    """A scenario's pass/fail contract over its variants.

    Data plus one function, owned by the scenario module: which variants
    to run, how to tabulate one finished run, and ``judge`` -- variant ->
    result in, :class:`GateVerdict` out.  The CLI, benches and tests all
    call the same ``judge``; nobody re-derives a threshold.
    """

    variants: Tuple[str, ...]
    title: str                      # may format ``{horizon:g}``
    headers: Tuple[str, ...]
    result: Callable[[PreparedRun], Dict[str, Any]]
    row: Callable[[Dict[str, Any]], List[Any]]
    judge: Callable[[Dict[str, Dict[str, Any]]], GateVerdict]


@dataclass(frozen=True)
class Scenario:
    """Everything the repo knows about one scenario, in one record.

    The builder makes it runnable; the rest is what the catalog, the CLI
    and the gates would otherwise each keep their own copy of.
    """

    name: str
    builder: ScenarioBuilder
    plane: str
    variants: Tuple[str, ...] = ()
    variant_param: str = "variant"   # the spec param ``variants`` are values of
    quick: Dict[str, Any] = field(default_factory=dict)
    #: The builder honours ``observe``/``monitored``/``strict`` params and,
    #: when monitored, puts the SLO ``monitor`` in ``aux``.
    monitored: bool = False
    gate: Optional[Gate] = None

    @property
    def description(self) -> str:
        doc = (self.builder.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def spec(self, quick: bool = False, seed: Optional[int] = None,
             **params: Any) -> ScenarioSpec:
        """A spec of this scenario; ``quick`` means the same under every verb."""
        return ScenarioSpec(self.name, seed=seed,
                            params={**(self.quick if quick else {}), **params})

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "plane": self.plane,
                "variants": list(self.variants),
                "description": self.description}


_REGISTRY: Dict[str, Scenario] = {}


class UnknownScenarioError(KeyError):
    """An unregistered scenario name.

    Subclasses ``KeyError`` for backward compatibility; carries the
    registered names so callers (the CLI in particular) can list what
    *is* available instead of dumping a traceback.
    """

    def __init__(self, name: str, available: List[str]) -> None:
        super().__init__(
            f"unknown scenario {name!r}; registered: {available}")
        self.name = name
        self.available = available

    def __str__(self) -> str:
        return f"unknown scenario {self.name!r}; registered: {self.available}"


def register_scenario(name: str, builder: Optional[ScenarioBuilder] = None, *,
                      plane: str, variants: Tuple[str, ...] = (),
                      variant_param: str = "variant",
                      quick: Optional[Dict[str, Any]] = None,
                      monitored: bool = False, gate: Optional[Gate] = None):
    """Register ``name``'s descriptor (usable as a decorator on the builder)."""

    def _register(fn: ScenarioBuilder) -> ScenarioBuilder:
        _REGISTRY[name] = Scenario(
            name=name, builder=fn, plane=plane, variants=tuple(variants),
            variant_param=variant_param, quick=dict(quick or {}),
            monitored=monitored, gate=gate)
        return fn

    if builder is not None:
        return _register(builder)
    return _register


#: Every module that registers built-in scenarios next to the
#: ``prepare_*`` functions they wrap.  Imported lazily: those modules
#: import this one for :class:`PreparedRun`.  All six on the first
#: registry read, not one per scenario built: the public drivers build
#: inside the benchmark's timed regions, so a name -> ``module:builder``
#: table would move these imports from start-up into the run (DESIGN.md
#: §4, "Import what runs").
_BUILTIN_MODULES = (
    "repro.experiments",
    "repro.observability.scenarios",
    "repro.traffic.scenarios",
    "repro.security.scenarios",
    "repro.chaos.compiler",
    "repro.shard.scenario",
)


def _ensure_builtin() -> None:
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def scenario_names() -> List[str]:
    _ensure_builtin()
    return sorted(_REGISTRY)


def describe_scenario(name: str) -> Scenario:
    """The descriptor registered under ``name``.

    Raises :class:`UnknownScenarioError` (with the available names) for
    anything not in the registry.
    """
    _ensure_builtin()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise UnknownScenarioError(name, sorted(_REGISTRY))
    return scenario


def prepare(spec: ScenarioSpec) -> PreparedRun:
    """Build (but do not run) the system described by ``spec``.

    ``params["live_loads"]`` -- reconfigurations hot-loaded into a
    previous live run, each ``{"fired": N, "time": T, "payload": {...}}``
    -- is applied generically: every load re-registers at its original
    fired-count barrier, so a rebuilt run (fast-forward, resume, replay)
    reproduces the mutation at the identical point in the event sequence
    and every kernel sequence number matches the live run's.
    """
    params = dict(spec.params)
    live_loads = params.pop("live_loads", None)
    prepared = describe_scenario(spec.name).builder(spec.seed, params)
    if live_loads:
        from repro.live.reconfigure import register_live_loads

        register_live_loads(prepared.system, live_loads)
    return prepared
