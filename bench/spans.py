"""Span tracing for the benchmark, installed from outside the package.

The tracer rebinds public functions of the buyintent modules to timing
wrappers. A function imported by name into several modules (``sigmoid``
lives in ``neural``, ``rbm``, ``baselines`` and ``synth``; the CLI imports
its stage functions by name) is rebound in every module namespace that
holds it, so calls made inside the package are seen too. Nothing in the
package changes, and leaving the ``with`` block puts every original back.

Spans nest on one stack (the benchmark is a single-threaded client). For
each traced function the tracer keeps calls and self time, which is the
span's duration minus the time its traced child spans cover. Self time is
also kept per benchmark operation, so a share such as "sigmoid within the
dbn holdout" can be read off. Hooks turn the arguments and results the
calls already carry into counts (events parsed, NMF iterations, tree
nodes); hook time is excluded from every span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

SETUP_OP = "setup"


class Tracer:
    """Wraps each (module, function, span name, hook) target of `package`.

    A target whose function no longer exists is recorded in ``absent``
    and skipped, and so is a hook that no longer fits the call, so a
    refactor that deletes, renames or reshapes a function does not break
    the traced run. The wrappers are in place only inside ``with tracer:``.
    """

    def __init__(self, package: str, targets):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.op_self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.op_total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._op = SETUP_OP
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for module, function, span, hook in targets:
            original = getattr(sys.modules.get(f"{package}.{module}"), function, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; spans under it are
        attributed to it."""
        frame = [0.0]
        self._stack.append(frame)
        outer, self._op = self._op, name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_total_s[name] += time.perf_counter() - start
            self._stack.pop()
            self._op = outer

    def _wrap(self, span: str, fn, hook):
        signature = inspect.signature(fn) if hook else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                self.calls[span] += 1
                self.self_s[span] += own
                self.op_self_s[(self._op, span)] += own
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None and span not in self.absent:
                hook_start = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    hook(self.counts, bound.arguments, out)
                except (AttributeError, KeyError, TypeError):
                    # The call's arguments or result changed shape; its
                    # counts are reported as absent from here on.
                    self.absent.append(span)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return out

        return traced
