"""Hierarchical tracing spans with wall time and call aggregation.

A :class:`Tracer` maintains a tree of :class:`SpanStats` nodes.  Span
names may contain ``/`` separators — ``span("global/level3/solve")``
opens three nested nodes at once, so call sites can express their
position in the taxonomy without threading parent handles around.
Only the last segment is timed: the nodes it opens on the way record
no calls and no seconds of their own, so a node that should report its
own time is opened as a span of its own.

Repeated spans with the same path aggregate: ``seconds`` accumulates
wall time and ``calls`` counts completions, which is what per-stage
reporting wants (e.g. one ``weights`` node covering every per-level
net-weight refresh of a global placement).

The clock is injectable so tests can drive deterministic timings; the
default is :func:`time.perf_counter`.  This module is the only place in
``src/repro`` (outside ``repro.obs``) allowed to read the wall clock —
the domain linter rule RPL009 enforces that.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Type)

__all__ = ["SpanStats", "Stopwatch", "Tracer"]


class SpanStats:
    """One node of the span tree.

    Attributes:
        name: the last path segment (``solve`` in ``level3/solve``).
        calls: completed spans that ended exactly at this node.
        seconds: wall time measured for spans ending at this node.
            Child time is a subset of the parent's measured time, not
            an addition to it.
        children: child nodes keyed by name, in creation order.
    """

    __slots__ = ("name", "calls", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.children: Dict[str, SpanStats] = {}

    def child(self, name: str) -> "SpanStats":
        """Return the child named ``name``, creating it if needed."""
        node = self.children.get(name)
        if node is None:
            node = SpanStats(name)
            self.children[name] = node
        return node

    def total_seconds(self) -> float:
        """Wall time attributable to this subtree.

        A node that was entered directly reports its own measured
        ``seconds`` (children are already inside that window); a purely
        structural node (created only as an intermediate path segment)
        reports the sum of its children.
        """
        if self.calls > 0:
            return self.seconds
        return sum(c.total_seconds() for c in self.children.values())

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "SpanStats"]]:
        """Yield ``(path, node)`` pairs depth-first, excluding self."""
        for child in self.children.values():
            path = f"{prefix}{child.name}"
            yield path, child
            yield from child.walk(prefix=f"{path}/")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view of the subtree."""
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "total_seconds": self.total_seconds(),
            "children": [c.as_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanStats":
        """Rebuild a subtree from its :meth:`as_dict` view.

        ``total_seconds`` is derived state and is ignored; the
        round-trip ``SpanStats.from_dict(node.as_dict())`` reproduces
        names, calls, seconds and child order exactly.
        """
        node = cls(str(data.get("name", "")))
        node.calls = int(data.get("calls", 0))
        node.seconds = float(data.get("seconds", 0.0))
        for child_data in data.get("children", []):
            child = cls.from_dict(child_data)
            node.children[child.name] = child
        return node

    def merge(self, other: "SpanStats") -> None:
        """Fold another subtree into this one, in place.

        Calls and seconds add at every matching path; children unique
        to ``other`` are deep-merged into fresh nodes (appended after
        this node's existing children, preserving creation order on
        both sides).  Merging is associative and commutative up to
        child ordering, so folding worker snapshots into a parent tree
        gives the same totals regardless of completion order.
        """
        self.calls += other.calls
        self.seconds += other.seconds
        for name, other_child in other.children.items():
            self.child(name).merge(other_child)


class _ActiveSpan:
    """Context manager for one open span (possibly multi-segment)."""

    __slots__ = ("_tracer", "_nodes", "_start")

    def __init__(self, tracer: "Tracer", nodes: List[SpanStats]) -> None:
        self._tracer = tracer
        self._nodes = nodes
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer.push(self._nodes)
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        elapsed = self._tracer.clock() - self._start
        leaf = self._nodes[-1]
        leaf.calls += 1
        leaf.seconds += elapsed
        self._tracer.pop(len(self._nodes), elapsed)


class Tracer:
    """Builds the span tree and tracks the currently open span stack.

    Args:
        clock: monotonic time source, seconds (injectable for tests).
        on_exit: optional callback ``(path, seconds)`` fired when a span
            closes — the recorder uses it to stream span events to the
            JSONL sink.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 on_exit: Optional[Callable[[str, float], None]] = None,
                 ) -> None:
        self.clock = clock
        self.on_exit = on_exit
        self.root = SpanStats("")
        self._stack: List[SpanStats] = [self.root]

    def span(self, name: str) -> _ActiveSpan:
        """Open a span below the currently active one.

        Args:
            name: span path; ``/`` separators open nested segments.

        Returns:
            A context manager; timing covers the ``with`` body.
        """
        node = self._stack[-1]
        nodes: List[SpanStats] = []
        for part in name.split("/"):
            node = node.child(part)
            nodes.append(node)
        return _ActiveSpan(self, nodes)

    def push(self, nodes: List[SpanStats]) -> None:
        """Make ``nodes`` (outer→inner) the active span chain."""
        self._stack.extend(nodes)

    def pop(self, count: int, elapsed: float) -> None:
        """Close ``count`` segments and report the leaf path."""
        if self.on_exit is not None:
            path = "/".join(n.name for n in self._stack[1:])
            self.on_exit(path, elapsed)
        del self._stack[-count:]

    def current_path(self) -> str:
        """``/``-joined path of the innermost open span (may be "")."""
        return "/".join(n.name for n in self._stack[1:])

    def current_node(self) -> SpanStats:
        """The innermost open span's node (the root when none is open).

        Merge anchors use this: folding a child tracer's tree in here
        files its spans under whatever span the caller has open.
        """
        return self._stack[-1]


class Stopwatch:
    """Minimal elapsed-time helper for code without a span tree.

    The baseline placers time a single block; a stopwatch keeps them off
    raw ``time.perf_counter()`` (RPL009) without dragging in a recorder.

    Example:
        >>> sw = Stopwatch()
        >>> sw.elapsed() >= 0.0
        True
    """

    __slots__ = ("_clock", "_start")

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 ) -> None:
        self._clock = clock
        self._start = clock()

    def restart(self) -> None:
        """Reset the start time to now."""
        self._start = self._clock()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return self._clock() - self._start
