"""Outside-in span tracing of the charged_extensions package.

The tracer wraps the public functions of the layer modules, and the public
methods of their public classes, from outside the package.  Each wrapper is
rebound wherever a package module binds the original function object, so a
call through ``surgery.rn_profile`` is traced just like one through
``lambda_rn.rn_profile``.  Spans stay in memory as parallel lists and are
reduced to per-layer figures when the run ends.

Per-sample scalar kernels are left alone: a round construction makes tens of
thousands of ``eval_dp`` calls, and wrapping them would swamp the timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = (
    "lambda_rn",
    "sphere_seed",
    "collar",
    "surgery",
    "quasilocal",
    "numutil",
    "pipeline",
    "cli_io",
)

NOT_WRAPPED = frozenset(
    {
        "eval_p",
        "eval_dp",
        "eval_d2p",
        "eval_h",
        "smooth_step",
        "smooth_step_d1",
        "smooth_step_d2",
        "fmt17",
    }
)

PACKAGE = "charged_extensions"


def rebind(replacements: dict[int, object], package: str = PACKAGE) -> list:
    """Rebind functions wherever a package module binds them.

    ``replacements`` maps ``id(original)`` to its replacement.  Returns
    ``(module, attr, original)`` entries that undo the rebinding.
    """
    pkg = importlib.import_module(package)
    restore = []
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and inspect.isfunction(value):
                restore.append((module, attr, value))
                setattr(module, attr, replacements[id(value)])
    return restore


class Tracer:
    """In-memory span recorder; a span opens only while an operation runs.

    ``op`` is the identifier of the running operation, or None between
    operations (oracle checks and bookkeeping are then not traced).
    """

    def __init__(self):
        self.op = None
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        self.wrapped.add(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_id.append(tracer.op)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                stack.pop()

        return traced

    def install(self, package: str = PACKAGE) -> int:
        """Wrap every public layer function; return the number wrapped."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or attr in NOT_WRAPPED:
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[id(value)] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        if method.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._restore.append((value, method, fn))
                        setattr(
                            value, method, self._wrap(fn, f"{layer}.{attr}.{method}")
                        )
        self._restore.extend(rebind(wrapped, package))
        return len(self.wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, self time and outermost busy time summed per span name.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children nest inside
        their parent and never overlap each other.  Busy time counts only
        spans with no enclosing span of the same name.
        """
        count = len(self.name)
        child = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        stats: dict[str, dict[str, float]] = {}
        for index in range(count):
            name = self.name[index]
            duration = self.end[index] - self.start[index]
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - child[index]
            outer = self.parent[index]
            while outer >= 0 and self.name[outer] != name:
                outer = self.parent[outer]
            if outer < 0:
                entry["busy_s"] += duration
        return stats
