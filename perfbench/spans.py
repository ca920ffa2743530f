"""Outside-in span tracing of nclp's public functions.

The tracer wraps functions from the benchmark's side: a module-level
function is rebound in every ``nclp.*`` namespace that holds the same
object (``czkit`` and ``cuculescu`` import ``proj_meet`` by name, so
patching ``opcore`` alone would miss their calls), and a method is replaced
on its class.  ``installed`` puts every original back when it exits.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    """Nested spans aggregated per (name, parent name), so memory stays
    bounded however many calls are made.

    A span's self time is its duration minus the time its child spans
    cover.  Calls are synchronous and single-threaded, so children nest
    strictly and the time they cover is the sum of their durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []    # [name, start, time covered by children]
        self.edges = {}     # (name, parent) -> [calls, total_s, self_s]

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else None)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - covered

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def by_name(self) -> dict[str, dict]:
        """name -> {"calls", "total_s", "self_s"}, summed over parents.

        ``total_s`` double-counts a name that nests inside itself; use it
        only for spans that do not recurse.
        """
        out = {}
        for (name, _), (calls, total, own) in self.edges.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
        return out


def _traced(tracer: Tracer, name: str, fn, observe=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if observe is not None:
            observe(name, args, out)
        return out

    return wrapper


def nclp_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "nclp" or n.startswith("nclp.")) and m is not None]


def resolve(module, attribute: str):
    """(owner, attribute name, original) for ``func`` or ``Class.method``;
    the original is None when the program no longer defines it."""
    owner = module
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, last, vars(owner).get(last) if owner is not None else None


@contextlib.contextmanager
def installed(tracer: Tracer, targets, observe=None):
    """Wrap each (span name, module, attribute) target while the block runs.

    ``observe`` maps a span name to a callback ``(name, args, result)`` run
    after each call, for counters computed from arguments and results.
    Yields the names of targets the program does not define; their spans
    stay empty.
    """
    modules = nclp_modules()
    saved = []                  # (owner, attribute, original)
    absent = []
    try:
        for name, module, attribute in targets:
            owner, attr, original = resolve(module, attribute)
            if original is None:
                absent.append(name)
                continue
            wrapper = _traced(tracer, name, original,
                              (observe or {}).get(name))
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
