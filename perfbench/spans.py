"""In-memory spans around the calls into each surfrec layer.

A span is [name, start, end, parent index, op id].  Untimed runs use
``NULL`` so the same op code runs with and without tracing.  Calls the
library makes internally are reached by wrapping module attributes that are
looked up at call time (``HOOKS``); every other span is opened explicitly
around a public call in the benchmark's op code.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time

# (module, attribute, span name); each is a public function that the module
# named first looks up as a global when it calls it
HOOKS = (
    ("surfrec.methods", "solve", "sylvester.solve"),
    ("surfrec.regparam", "build_cache", "regparam.build_cache"),
    ("surfrec.regparam", "l_curve", "regparam.l_curve"),
    ("surfrec.regparam", "corner", "regparam.corner"),
    ("surfrec.regparam", "reconstruct_from_cache", "regparam.from_cache"),
    ("surfrec.simulate", "gradient_misfit", "methods.misfit"),
)


class _NullTracer:
    op = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


NULL = _NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.solves: list = []  # (span, system, solution) of each hooked solve
        self.points: list[int] = []  # length of each L-curve sweep
        self.op = None
        self._stack: list[int] = []
        self._restore: list = []
        self.unhooked: list[str] = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, parent, op) -> int:
        """Record a span measured elsewhere (another process); returns its index."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def install(self) -> None:
        """Wrap the HOOKS; names a refactor removed are listed in unhooked."""
        self.unhooked = []
        for modname, attr, name in HOOKS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.unhooked.append(f"{modname}.{attr}")
                continue
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, fn = self._restore.pop()
            setattr(mod, attr, fn)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if name == "sylvester.solve":
                self.solves.append((rec, args[0], out))
            elif name == "regparam.l_curve":
                self.points.append(len(out))
            return out
        return wrapper

    def take_solves(self) -> list[list]:
        """[modelled flops, seconds, relative residual, deflated] per hooked
        solve since the last call; the residual is computed here, untimed."""
        import numpy as np
        from surfrec.sylvester import work_estimate

        out = []
        for rec, system, phi in self.solves:
            rhs = np.linalg.norm(system.rhs())
            out.append([work_estimate(*system.phi_shape), rec[2] - rec[1],
                        system.residual(phi) / rhs if rhs > 0 else 0.0,
                        system.u is not None])
        self.solves.clear()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def accounting_gap(spans, root_name="op") -> float:
    """Largest |sum of self times of an op's spans - its root's duration|."""
    own = self_times(spans)
    total: dict = {}
    root: dict = {}
    for s, t in zip(spans, own):
        total[s[4]] = total.get(s[4], 0.0) + t
        if s[0] == root_name:
            root[s[4]] = s[2] - s[1]
    return max((abs(total[k] - v) for k, v in root.items()), default=0.0)


def durations(spans, name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def median(values):
    """Median, or None for no values."""
    return statistics.median(values) if values else None
