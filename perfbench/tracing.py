"""In-memory spans recorded around calls into the svcache modules.

A span has a name, start and end times (``time.perf_counter`` seconds),
the id of the span that was open when it started, the repetition it
belongs to and, for a wrapped function, its scalar arguments by name.
Spans are kept in a list and written out only when the run ends, so
tracing adds no I/O to the timed work.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import ExitStack, contextmanager


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, rep=None):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._signatures: dict = {}
        self.rep = rep

    def _start(self, name: str, attrs: dict) -> dict:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "rep": self.rep, "start": time.perf_counter(), "end": None,
                  **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def _end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; ``attrs`` are stored on the span."""
        record = self._start(name, attrs)
        try:
            yield record
        finally:
            self._end(record)

    def wrap(self, name: str, fn):
        """``fn`` with every call inside a span named ``name``.  The span
        keeps the call's arguments as given; ``finish`` names them."""
        self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._start(name, {"args": (args, kwargs)})
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(record)

        return traced

    def finish(self) -> None:
        """Replace each wrapped call's arguments by its int, float, str and
        bool arguments by parameter name.  Binding them during the run
        would cost more than some of the calls it times."""
        for s in self.spans:
            if isinstance(s.get("args"), tuple):
                args, kwargs = s["args"]
                bound = self._signatures[s["name"]].bind(*args, **kwargs)
                s["args"] = {k: v for k, v in bound.arguments.items()
                             if isinstance(v, (int, float, str))}

    @contextmanager
    def instrument(self, targets: dict):
        """Wrap ``module.name`` for each module and names in ``targets``
        with a span named ``<module>.<name>``, and restore it on exit.

        Only calls that look the function up through its module are
        traced: ``svcache.cli`` calls ``analytic.*`` and ``montecarlo.*``
        this way, and a module's calls to its own functions go through
        its globals, which are the module's attributes.
        """
        with ExitStack() as restore:
            for module, names in targets.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for name in names:
                    original = getattr(module, name)
                    restore.callback(setattr, module, name, original)
                    setattr(module, name,
                            self.wrap(f"{short}.{name}", original))
            yield

    def find(self, name: str, under: int | None = None) -> list[dict]:
        """Spans called ``name`` in start order, optionally only the direct
        children of span ``under``."""
        return [s for s in self.spans if s["name"] == name
                and (under is None or s["parent"] == under)]

    def total(self, name: str, under: int | None = None) -> float:
        """Summed duration of the spans that ``find`` returns."""
        return sum(duration(s) for s in self.find(name, under))

    def children_total(self, span_id: int) -> float:
        """Summed duration of the direct children of one span."""
        return sum(duration(s) for s in self.spans if s["parent"] == span_id)

    def self_time(self, span: dict) -> float:
        """A span's duration minus that of its direct children."""
        return duration(span) - self.children_total(span["id"])

    def nesting_errors(self) -> list[str]:
        """Spans that are unfinished or stick out of their parent."""
        errors = []
        for s in self.spans:
            if s["end"] is None or s["end"] < s["start"]:
                errors.append(f"span {s['id']} {s['name']} is not closed")
                continue
            if s["parent"] is None:
                continue
            p = self.spans[s["parent"]]
            if p["end"] is None or s["start"] < p["start"] or s["end"] > p["end"]:
                errors.append(f"span {s['id']} {s['name']} lies outside "
                              f"its parent {p['id']} {p['name']}")
        return errors


def duration(span: dict) -> float:
    return span["end"] - span["start"]
