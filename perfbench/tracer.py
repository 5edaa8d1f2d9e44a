"""Outside-in tracer: runs qtorus.cli.main in-process with its layers wrapped.

Usage:  python3 perfbench/tracer.py TRACE_JSON -- <qtorus cli arguments>

The CLI's stdout is passed through unchanged, so it can be compared byte for
byte with an untraced run.  Every public function and method of the layer
modules (and the arithmetic operators of their classes) is replaced by a
wrapper that counts calls and accumulates self time: a call's duration minus
the time covered by the wrapped calls it makes.  The name is patched in every
qtorus module that holds it, since `checks` and `cli` import names directly.
Suites and checks are recorded as spans (a check lasts from the previous
`checks.report` call, or the start of its suite, to its own report).  All of
it stays in memory and is written to TRACE_JSON when the command returns.
Nothing under src/ is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cyclotomic", "torus", "algebra", "derivations", "semidirect", "glmodules", "fmodule")
SUITES = {
    "cocycle_suite": "cocycle",
    "lie_suite": "lie",
    "module_suite": "module",
    "section3_suite": "section3",
    "section4_suite": "section4",
    "irreducibility_suite": "irreducibility",
}
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__eq__",
)


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer:qualname" -> [calls, self seconds]
        self.stack = []  # child time covered so far, one entry per open call
        self.spans = []  # {"id", "parent", "name", "start", "end"}: command, suites, checks
        self.max_conductor = 1
        self.search = {"depth": 0, "characters_tried": 0, "hits": 0}
        self._mark = None  # end of the last reported check
        self._t0 = time.perf_counter()

    # -- hot-path wrappers -----------------------------------------------------

    def wrap(self, layer, fn, observe=None):
        stats = self.stats.setdefault(f"{layer}:{fn.__qualname__}", [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_conductor(self, value):
        m = getattr(value, "M", 1)
        if m > self.max_conductor:
            self.max_conductor = m

    # -- coarse spans --------------------------------------------------------------

    def span(self, name, start, end):
        self.spans.append(
            {"id": len(self.spans), "parent": None, "name": name,
             "start": start - self._t0, "end": end - self._t0}
        )
        return len(self.spans) - 1

    def report_fn(self, fn):
        def wrapper(check, *args, **kwargs):
            row = fn(check, *args, **kwargs)
            now = time.perf_counter()
            self.span(f"check:{check}", now if self._mark is None else self._mark, now)
            self._mark = now
            return row

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self):
        import qtorus

        modules = {name: importlib.import_module(f"qtorus.{name}") for name in LAYERS}
        checks = importlib.import_module("qtorus.checks")
        cli = importlib.import_module("qtorus.cli")
        replaced = {}  # id(original) -> (original, wrapper)

        for layer, mod in modules.items():
            observe = self._observe_conductor if layer == "cyclotomic" else None
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self.wrap(layer, obj, observe))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, observe)
        self._install_search_counters(modules["fmodule"], replaced)

        for mod in [qtorus, checks, cli, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        for fname, suite in SUITES.items():
            setattr(checks, fname, self.suite_fn(f"suite:{suite}", getattr(checks, fname)))
        checks.report = self.report_fn(checks.report)

    def _wrap_class(self, layer, cls, observe):
        done = {}  # same function under two names (e.g. __mul__ and __rmul__)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if id(fn) not in done:
                    done[id(fn)] = type(raw)(self.wrap(layer, fn, observe))
                setattr(cls, attr, done[id(fn)])
            elif inspect.isfunction(raw):
                if id(raw) not in done:
                    done[id(raw)] = self.wrap(layer, raw, observe)
                setattr(cls, attr, done[id(raw)])

    def _install_search_counters(self, fmodule, replaced):
        """Characters tried and accepted by search_twist_equivalence: the
        search builds one plain DiagonalCharacter per candidate character."""
        search = self.search
        base = fmodule.DiagonalCharacter
        init = base.__init__

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if search["depth"] and type(obj) is base:
                search["characters_tried"] += 1

        base.__init__ = counted_init
        orig, wrapped = replaced[id(fmodule.search_twist_equivalence)]

        def counted_search(*args, **kwargs):
            search["depth"] += 1
            try:
                result = wrapped(*args, **kwargs)
            finally:
                search["depth"] -= 1
            search["hits"] += bool(result.get("found"))
            return result

        replaced[id(orig)] = (orig, counted_search)

    def suite_fn(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._mark = start
            first = len(self.spans)
            try:
                return fn(*args, **kwargs)
            finally:
                sid = self.span(name, start, time.perf_counter())
                for s in self.spans[first:sid]:
                    s["parent"] = sid

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, exit_code, wall_s):
        payload = {
            "exit_code": exit_code,
            "wall_s": wall_s,
            "functions": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.stats.items())},
            "max_conductor": self.max_conductor,
            "search": {k: v for k, v in self.search.items() if k != "depth"},
            "spans": self.spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <qtorus cli arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from qtorus import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    end = time.perf_counter()
    tracer.span(f"command:{cli_args[0]}", start, end)
    sys.stdout.flush()
    tracer.dump(out, code, end - start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
