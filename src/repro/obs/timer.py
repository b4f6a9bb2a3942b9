"""Nestable wall-clock stage timers.

The solvers label their phases with hierarchical *stages* — e.g. GEBE^p runs
``gebe_p/rsvd/power_iter`` inside ``gebe_p/rsvd`` inside ``gebe_p``.  A
:class:`StageTimer` maintains that tree: entering a stage pushes a node,
leaving it accumulates elapsed monotonic time and a call count.  Re-entering
a stage name under the same parent accumulates into the same node, so loops
(one ``iterate`` stage per KSI iteration) report total time and call count
rather than thousands of records.

All clocks are ``time.perf_counter`` (monotonic, high resolution).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

__all__ = ["StageRecord", "StageTimer"]


@dataclass
class StageRecord:
    """One node of the stage tree.

    Attributes
    ----------
    name:
        Stage label (no ``/``; the hierarchy supplies the path).
    path:
        ``/``-joined path from the root, e.g. ``gebe_p/rsvd/power_iter``.
    seconds:
        Total wall-clock time spent inside this stage (including children).
    calls:
        Number of times the stage was entered.
    children:
        Child stages in first-entered order, keyed by name.
    """

    name: str
    path: str
    seconds: float = 0.0
    calls: int = 0
    children: Dict[str, "StageRecord"] = field(default_factory=dict)

    def child(self, name: str) -> "StageRecord":
        """The named child record, created on first use."""
        record = self.children.get(name)
        if record is None:
            path = f"{self.path}/{name}" if self.path else name
            record = StageRecord(name=name, path=path)
            self.children[name] = record
        return record

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (see ``docs/OBSERVABILITY.md``)."""
        return {
            "name": self.name,
            "path": self.path,
            "seconds": self.seconds,
            "calls": self.calls,
            "children": [child.to_dict() for child in self.children.values()],
        }


class StageTimer:
    """A stack of nested stages accumulating into a :class:`StageRecord` tree."""

    def __init__(self) -> None:
        self.root = StageRecord(name="", path="")
        self._stack: List[StageRecord] = [self.root]

    @contextmanager
    def stage(self, name: str) -> Iterator[StageRecord]:
        """Time a stage nested under whatever stage is currently open."""
        if "/" in name:
            raise ValueError(f"stage names must not contain '/': {name!r}")
        record = self._stack[-1].child(name)
        self._stack.append(record)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds += time.perf_counter() - started
            record.calls += 1
            self._stack.pop()

    def stages(self) -> List[Dict[str, Any]]:
        """The top-level stage records as JSON-ready dicts."""
        return [child.to_dict() for child in self.root.children.values()]

    def flatten(self) -> Dict[str, StageRecord]:
        """All records keyed by path (handy for tests and report readers)."""
        flat: Dict[str, StageRecord] = {}

        def walk(record: StageRecord) -> None:
            for child in record.children.values():
                flat[child.path] = child
                walk(child)

        walk(self.root)
        return flat
