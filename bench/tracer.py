"""Outside-in span tracer for the cebound package.

The tracer never edits the package source.  While installed, it replaces every
function exported by ``cebound/__init__.py``, plus ``cebound.cli.main``, in
each ``cebound.*`` module namespace that holds that function object (so
aliases such as ``cli.variational_optimizer`` are covered too), and it
replaces ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd``.  Each wrapped call
records one span: a name id, a start, an end, its parent span and, for LAPACK
calls, the work ``batch * n^3`` taken from the argument's shape.  Spans stay
in flat in-memory arrays until ``summary()`` folds them into per-function
counts and self times; ``reset()`` drops them.  ``uninstall()`` restores every
original object.

Span names are ``<layer>.<function>``: the layer is the defining module's
short name (``linalg``, ``bkm``, ...), or ``lapack`` for the numpy.linalg
calls.  Private helpers are not wrapped, so their time counts toward the
nearest traced caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "svd")


def _lapack_work(name: str, args) -> float:
    """batch * n^3 for eigh/eigvalsh, batch * m * n * min(m, n) for svd."""
    if not args:
        return 0.0
    shape = np.shape(args[0])
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = math.prod(shape[:-2])
    if name == "svd":
        return float(batch * m * n * min(m, n))
    return float(batch * n**3)


class Tracer:
    """Wraps cebound's public functions and numpy's eigensolvers with spans."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_work = array("d")

    # ------------------------------------------------------------ install

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, lapack: bool = False):
        nid = self._name_id(name)
        short = name.rsplit(".", 1)[-1]
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, work = self.span_start, self.span_end, self.span_work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            work.append(_lapack_work(short, args) if lapack else 0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def public_functions(self) -> dict:
        """id -> function for every function the package exports, plus cli.main."""
        prefix = self.package.__name__
        found = {
            id(obj): obj
            for obj in vars(self.package).values()
            if inspect.isfunction(obj) and obj.__module__.startswith(prefix + ".")
        }
        cli = sys.modules.get(prefix + ".cli")
        if cli is not None and inspect.isfunction(getattr(cli, "main", None)):
            found[id(cli.main)] = cli.main
        return found

    def install(self) -> None:
        prefix = self.package.__name__
        targets = self.public_functions()
        wrappers = {
            key: self._wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            for key, fn in targets.items()
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)] is value:
                    self._patch(mod, attr, wrappers[id(value)])
        for name in LAPACK_FUNCTIONS:
            original = getattr(np.linalg, name)
            self._patch(np.linalg, name, self._wrap(original, f"lapack.{name}", lapack=True))

    def _patch(self, namespace, attr: str, replacement) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ results

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_work):
            del arr[:]
        del self._stack[1:]

    def summary(self) -> dict:
        """Per span name: calls, self_ms, lapack_calls (inclusive), work.

        Self time is a span's duration minus the durations of its direct
        child spans.  ``lapack_calls`` counts the LAPACK spans anywhere below
        a span of that name.
        """
        k = len(self.names)
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(name, minlength=k)
        self_total = np.bincount(name, weights=self_s, minlength=k)
        work = np.bincount(name, weights=np.array(self.span_work), minlength=k)
        lapack_ids = [self._name_ids[f"lapack.{n}"] for n in LAPACK_FUNCTIONS
                      if f"lapack.{n}" in self._name_ids]
        lapack_calls = np.zeros(k, dtype=np.int64)
        anc = parent[np.isin(name, lapack_ids)]
        while anc.size:
            anc = anc[anc >= 0]
            lapack_calls += np.bincount(name[anc], minlength=k)
            anc = parent[anc]
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "self_ms": float(self_total[i]) * 1e3,
                "lapack_calls": int(lapack_calls[i]),
                "work": float(work[i]),
            }
            for i in range(k)
        }
