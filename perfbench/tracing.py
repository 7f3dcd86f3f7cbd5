"""In-memory span tracer wrapped around the package's public functions.

`Tracer.installed()` rebinds each function at the name the package looks it
up by, so calls made inside the package (the controller calling `recover`,
the solver calling `splu`) are recorded too, and restores the originals on
exit.  A span is (name, start, end, parent, episode, step, note): parent is
the index of the enclosing span or -1, and note is what a span's `note`
hook made of the call's result.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from coulombmpc import controller, horizon, simulate, solver

NAME, START, END, PARENT, EPISODE, STEP, NOTE = range(7)


def _targets():
    """(span name, owner, attribute, note hook) for every traced function."""
    return [
        ("controller.step", controller.MpcController, "step", None),
        ("controller.warm_start_payload", controller, "warm_start_payload",
         lambda result: result is not None),
        ("horizon.to_conic", controller, "to_conic", None),
        ("horizon.update_initial_state", controller, "update_initial_state", None),
        ("horizon.unpack", horizon.HorizonProblem, "unpack", None),
        ("solver.solve", solver.ConicSolver, "solve", None),
        ("solver.splu", solver, "splu", None),
        ("recovery.recover", controller, "recover", None),
        ("recovery.saturate", controller, "saturate", None),
        ("simulate.propagate", simulate, "propagate", None),
        ("dynamics.rk4_step", simulate, "rk4_step", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.episode = -1
        self.step = -1

    def _begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                self.episode, self.step, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr, note in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------------
    def select(self, name: str, episodes=None) -> list[list]:
        return [s for s in self.spans
                if s[NAME] == name and (episodes is None or s[EPISODE] in episodes)]

    def self_times(self, name: str, episodes=None) -> np.ndarray:
        """Duration of each `name` span minus the time its child spans cover."""
        children = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] = children.get(s[PARENT], 0.0) + s[END] - s[START]
        return np.array([
            s[END] - s[START] - children.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[NAME] == name and (episodes is None or s[EPISODE] in episodes)
        ])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "episode": s[EPISODE], "step": s[STEP],
                    "note": s[NOTE],
                }) + "\n")


def durations(spans: list[list]) -> np.ndarray:
    return np.array([s[END] - s[START] for s in spans])
