"""Seed-deterministic fault injection (the chaos harness).

A system that claims to degrade rather than die has to be *driven*
through its failure paths, repeatably.  This module provides the
failure points the rest of the codebase is instrumented with:

- :func:`fault_point` — called at named sites on production code paths
  (``"shard.search"`` in :class:`~repro.retrieval.backend.ShardedBackend`,
  ``"engine.slice"`` in :class:`~repro.serving.engine.ServingEngine`,
  ``"io.atomic_write"`` in the atomic-write helpers,
  ``"artifacts.publish"`` in the generation publish step).  A site
  call is a cheap no-op until a matching :class:`FaultSpec` is
  installed.
- :class:`FaultSpec` — one injectable failure: *where* (site plus
  optional context equality ``match``), *when* (``after`` warm-up hits,
  ``rate`` firing probability, ``max_fires`` budget) and *what*
  (``mode``):

  ========= ==========================================================
  mode      effect at the fault point
  ========= ==========================================================
  raise     raise :class:`InjectedFault`
  hang      sleep ``delay`` seconds, then raise :class:`InjectedTimeout`
            (a bounded stand-in for a hung dependency: the caller
            counts a timeout and returns instead of deadlocking the
            test)
  slow      sleep ``delay`` seconds, then continue normally
  torn      raise :class:`InjectedFault` flagged ``torn=True`` — the
            atomic-write helpers additionally truncate the staged temp
            file, simulating a crash mid-write
  ========= ==========================================================

- a process-global :class:`FaultInjector` with :func:`install` /
  :func:`reset`; determinism comes from a per-spec
  ``default_rng(SeedSequence(entropy=(seed, site)))`` stream, so a
  given plan fires at the same hit indices on every run.

Specs are plain data (``to_dict`` / ``from_dict``) so a fault plan can
ride through pipeline config (``faults.specs``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Modes a spec may request.
MODES = ("raise", "hang", "slow", "torn")


class InjectedFault(RuntimeError):
    """An injected failure fired at ``site``."""

    def __init__(self, site: str, mode: str = "raise",
                 context: Optional[Dict[str, Any]] = None):
        self.site = site
        self.mode = mode
        self.context = dict(context or {})
        self.torn = mode == "torn"
        detail = ", ".join("%s=%r" % kv for kv in sorted(self.context.items()))
        super().__init__("injected %s fault at %r%s"
                         % (mode, site, " (%s)" % detail if detail else ""))


class InjectedTimeout(InjectedFault):
    """A ``hang``-mode fault: the dependency never answered in time."""

    def __init__(self, site: str, context: Optional[Dict[str, Any]] = None):
        super().__init__(site, mode="hang", context=context)


@dataclasses.dataclass
class FaultSpec:
    """One injectable failure point (see the module docstring table)."""

    site: str
    mode: str = "raise"
    #: firing probability per eligible hit (1.0 = always)
    rate: float = 1.0
    #: eligible hits skipped before the spec may fire (warm-up)
    after: int = 0
    #: total fires allowed (``None`` = unbounded: a *dead* dependency)
    max_fires: Optional[int] = None
    #: sleep for ``slow`` / ``hang`` modes, seconds
    delay: float = 0.05
    #: equality constraints on the fault-point context, e.g.
    #: ``{"shard": 2}`` fires only for shard 2
    match: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not self.site:
            raise ValueError("faults: spec needs a non-empty site")
        if self.mode not in MODES:
            raise ValueError("faults: mode must be one of %s, got %r"
                             % ("/".join(MODES), self.mode))
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("faults: rate must be in (0, 1], got %r"
                             % self.rate)
        if self.after < 0:
            raise ValueError("faults: after must be >= 0, got %d" % self.after)
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("faults: max_fires must be >= 1 or None, got %r"
                             % self.max_fires)
        if self.delay < 0:
            raise ValueError("faults: delay must be >= 0, got %r" % self.delay)
        if not isinstance(self.match, dict):
            raise ValueError("faults: match must be a dict, got %r"
                             % type(self.match).__name__)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        payload = dict(payload)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError("faults: unknown spec key(s) %s; known: %s"
                             % (", ".join(map(repr, unknown)),
                                ", ".join(sorted(known))))
        return cls(**payload)

    def matches(self, context: Dict[str, Any]) -> bool:
        return all(context.get(key) == value
                   for key, value in self.match.items())


class FaultInjector:
    """Process-global registry of installed specs; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._specs: List[FaultSpec] = []
        self._hits: Dict[int, int] = {}
        self._fires: Dict[int, int] = {}
        self._rngs: Dict[int, np.random.Generator] = {}

    # -- management ----------------------------------------------------------

    def install(self, *specs: FaultSpec) -> None:
        """Add specs to the active plan (counters start fresh per spec)."""
        with self._lock:
            for spec in specs:
                if not isinstance(spec, FaultSpec):
                    spec = FaultSpec.from_dict(dict(spec))
                key = id(spec)
                self._specs.append(spec)
                self._hits[key] = 0
                self._fires[key] = 0
                self._rngs[key] = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=(int(spec.seed),
                                 *spec.site.encode("utf-8"))))

    def install_plan(self, specs) -> None:
        """Replace the active plan wholesale."""
        self.reset()
        self.install(*specs)

    def reset(self) -> None:
        with self._lock:
            self._specs = []
            self._hits.clear()
            self._fires.clear()
            self._rngs.clear()

    @property
    def active(self) -> bool:
        return bool(self._specs)

    def active_specs(self) -> List[FaultSpec]:
        with self._lock:
            return list(self._specs)

    def fires(self, site: Optional[str] = None) -> int:
        """Total fires so far, optionally restricted to one site."""
        with self._lock:
            return sum(self._fires[id(s)] for s in self._specs
                       if site is None or s.site == site)

    # -- the hot path --------------------------------------------------------

    def _due(self, site: str, context: Dict[str, Any]
             ) -> Optional[Tuple[FaultSpec, Dict[str, Any]]]:
        """Pick the first spec that fires for this hit (under the lock)."""
        with self._lock:
            for spec in self._specs:
                if spec.site != site or not spec.matches(context):
                    continue
                key = id(spec)
                self._hits[key] += 1
                if self._hits[key] <= spec.after:
                    continue
                if (spec.max_fires is not None
                        and self._fires[key] >= spec.max_fires):
                    continue
                if spec.rate < 1.0 and self._rngs[key].random() >= spec.rate:
                    continue
                self._fires[key] += 1
                return spec, context
        return None

    def on(self, site: str, **context: Any) -> None:
        """Evaluate one hit at ``site``; raises/sleeps when due."""
        due = self._due(site, context)
        if due is None:
            return
        spec, context = due
        if spec.mode == "slow":
            time.sleep(spec.delay)
            return
        if spec.mode == "hang":
            time.sleep(spec.delay)
            raise InjectedTimeout(site, context)
        raise InjectedFault(site, mode=spec.mode, context=context)


#: The process-global injector every fault point consults.
_INJECTOR = FaultInjector()


def fault_point(site: str, **context: Any) -> None:
    """Evaluate the installed plan at ``site`` (no-op when none is)."""
    if _INJECTOR.active:
        _INJECTOR.on(site, **context)


def install(*specs) -> None:
    _INJECTOR.install(*specs)


def install_plan(specs) -> None:
    _INJECTOR.install_plan(specs)


def reset() -> None:
    _INJECTOR.reset()


def active_specs() -> List[FaultSpec]:
    return _INJECTOR.active_specs()


def fires(site: Optional[str] = None) -> int:
    return _INJECTOR.fires(site)
