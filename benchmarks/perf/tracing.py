"""Benchmark-side tracing: timing wrappers around public ``repro`` functions.

Nothing in ``src/repro`` is edited.  A :class:`Tracer` replaces public
methods and module-level functions with timing wrappers for the length of
one traced run and puts the originals back afterwards.  Each wrapped call
is one span: name, start, end, and the span that caused it (the wrapped
call it is nested in).  Spans are kept in memory as per-(name, parent)
aggregates plus the first :data:`RAW_SPAN_LIMIT` raw spans, and written
out when the run ends.

A span's *self* time is its duration minus the durations of the spans
nested directly inside it, so over any tree the self times sum to the
root's duration.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per run; aggregates cover every span regardless.
RAW_SPAN_LIMIT = 20_000

#: Attribute every timing wrapper carries (it holds the wrapped original).
WRAPPED_FLAG = "__perf_wrapped__"


class Aggregate:
    """Count, inclusive and self seconds of one (name, parent) pair."""

    __slots__ = ("count", "busy_s", "self_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self, run_id: str, raw_limit: int = RAW_SPAN_LIMIT) -> None:
        self.run_id = run_id
        self.raw_limit = raw_limit
        self.aggregates: Dict[Tuple[str, Optional[str]], Aggregate] = {}
        self.raw: List[Dict[str, Any]] = []
        self.spans_seen = 0
        # Open spans, innermost last: [name, child seconds, span id].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------- #
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper that records one span named ``name`` per call."""
        stack = self._stack
        aggregates = self.aggregates
        raw = self.raw

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            self.spans_seen += 1
            frame = [name, 0.0, self.spans_seen]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent_name = None
                if parent is not None:
                    parent[1] += duration
                    parent_name = parent[0]
                key = (name, parent_name)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = Aggregate()
                agg.count += 1
                agg.busy_s += duration
                agg.self_s += duration - frame[1]
                if duration > agg.max_s:
                    agg.max_s = duration
                if len(raw) < self.raw_limit:
                    raw.append({
                        "id": frame[2], "name": name, "start": start,
                        "end": end,
                        "parent": parent[2] if parent is not None else None,
                        "run_id": self.run_id,
                    })

        setattr(wrapper, WRAPPED_FLAG, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def span(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Call ``fn`` under a one-off span (for calls the benchmark makes)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ---------------------------------------------------------- #
    def patch_method(self, cls: type, attr: str, name: str,
                     decorate: Optional[Callable[[Callable], Callable]] = None
                     ) -> None:
        """Replace ``cls.attr`` with a timing wrapper (classmethods too).

        ``decorate`` (if given) wraps the original first -- used to hang
        benchmark-side observers (e.g. attach an Instrument to each built
        system) on the same patch.
        """
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            inner = original.__func__
            inner = decorate(inner) if decorate else inner
            replacement: Any = classmethod(self.wrap(name, inner))
        else:
            inner = decorate(original) if decorate else original
            replacement = self.wrap(name, inner)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable[..., Any], name: str,
                       decorate: Optional[Callable[[Callable], Callable]] = None
                       ) -> None:
        """Replace every ``repro.*`` module binding of ``fn``.

        ``from x import f`` copies the binding into the importer, so a
        module-level function has to be replaced in each module that
        holds it, not only where it is defined.
        """
        inner = decorate(fn) if decorate else fn
        replacement = self.wrap(name, inner)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, replacement)

    def unpatch_all(self) -> None:
        """Put every original back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------- #
    def count(self, *names: str) -> int:
        return sum(agg.count for (name, _), agg in self.aggregates.items()
                   if name in names)

    def busy(self, *names: str) -> float:
        """Inclusive seconds under ``names``, nested repeats counted once.

        A span whose parent is also in ``names`` is already inside its
        parent's inclusive time, so it is skipped.
        """
        return sum(agg.busy_s for (name, parent), agg
                   in self.aggregates.items()
                   if name in names and parent not in names)

    def self_time(self, *names: str) -> float:
        return sum(agg.self_s for (name, _), agg in self.aggregates.items()
                   if name in names)

    def rows(self) -> List[Dict[str, Any]]:
        return [{"name": name, "parent": parent, "count": agg.count,
                 "busy_s": agg.busy_s, "self_s": agg.self_s,
                 "max_s": agg.max_s}
                for (name, parent), agg in sorted(
                    self.aggregates.items(),
                    key=lambda item: (item[0][0], item[0][1] or ""))]

    def write(self, path: str) -> int:
        """Write aggregates and raw spans as JSON lines; returns line count."""
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps({"type": "aggregate",
                                     "run_id": self.run_id, **row}) + "\n")
                lines += 1
            for span in self.raw:
                fh.write(json.dumps({"type": "span", **span}) + "\n")
                lines += 1
        return lines
