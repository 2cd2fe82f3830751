"""Outside-in tracer for the macchroma modules.

``Tracer.install()`` replaces every traced function of the package with a
timing wrapper in every namespace that holds a reference to it: the defining
module, the modules that imported it by name, the package namespace, and
module-level dicts that hold it (the CLI route tables and the verify item
tables).  No source file changes.

Traced are the public module-level functions, ``cli._emit``,
``cli.json.dumps``, and the public and dunder methods (construction,
arithmetic, comparison, printing) of the three coefficient rings.  Generator
functions are timed per ``next()``, so an enumerator's own time is not
charged to the loop that consumes it.

Self time of a call is its duration minus the durations of the traced calls
it made.  Counter hooks run outside every timed interval; their cost is
charged to ``trace_s``, so the self times plus ``trace_s`` add up to the
duration of the outermost traced call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import Counter
from math import factorial

LAYERS = ("shapes", "rings", "graphs", "symfunc", "chromatic", "macdonald", "jack", "verify", "cli")
RING_CLASSES = ("LaurentQT", "AlphaPoly", "RatFunQT")
# dicts whose values are suite items; each call's inclusive time is kept
ITEM_TABLES = ("_SUITE_ITEM", "_CONJECTURES")
PRIVATE_TRACED = {"cli": ("_emit",)}
INCLUSIVE = {"cli.main", "cli._emit", "symfunc.transition_table"}


class FillingCounter:
    """Counts, over one filling enumeration, the fillings whose content is
    weakly decreasing and the distinct (content, maj, inv - arm_des, mask)
    keys among them."""

    def __init__(self, counts: Counter):
        self.counts = counts
        self.keys = set()

    def item(self, filling):
        values, maj, inv, arm_des, mask = filling
        vec = [0] * len(values)
        for val in values:
            vec[val - 1] += 1
        if all(a >= b for a, b in zip(vec, vec[1:])):
            self.counts["dominant_fillings"] += 1
            self.keys.add((tuple(vec), maj, inv - arm_des, mask))

    def done(self):
        self.counts["filling_keys"] += len(self.keys)


class Tracer:
    """Per-function calls, self time, yields, and chosen inclusive times.

    Each traced name has a record ``[calls, self_s, yielded, inclusive_s,
    depth]``; each open span is a frame ``[start, time in traced children]``
    on a stack whose bottom frame collects the outermost spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records = {}
        self.counts = Counter()
        self.item_s = []
        self.trace_s = 0.0
        self._stack = [[0.0, 0.0]]
        self._restore = []

    def _record(self, name):
        return self.records.setdefault(name, [0, 0.0, 0, 0.0, 0])

    def _hook(self, fn, *args):
        """Run a counter hook and keep its cost out of every span."""
        start = self.clock()
        fn(*args)
        spent = self.clock() - start
        self.trace_s += spent
        self._stack[-1][1] += spent

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, inclusive=False, item=False, after=None, per_call=None):
        """Timing wrapper for fn, recorded under ``name``.

        ``inclusive`` also sums the outermost calls' durations; ``item``
        keeps each call's duration in ``item_s``; ``after(args, kwargs,
        result)`` runs after each call; ``per_call()`` makes an object whose
        ``item`` sees each yielded value and whose ``done`` runs when a
        generator ends.
        """
        rec = self._record(name)
        stack, clock = self._stack, self.clock
        push, pop = stack.append, stack.pop

        if inspect.isgeneratorfunction(fn):
            hook = self._hook

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[0] += 1
                gen = fn(*args, **kwargs)
                counter = per_call() if per_call else None
                try:
                    while True:
                        frame = [clock(), 0.0]
                        push(frame)
                        try:
                            value = next(gen)
                        except StopIteration:
                            break
                        finally:
                            elapsed = clock() - frame[0]
                            pop()
                            rec[1] += elapsed - frame[1]
                            stack[-1][1] += elapsed
                        rec[2] += 1
                        if counter:
                            hook(counter.item, value)
                        yield value
                    if counter:
                        hook(counter.done)
                finally:
                    gen.close()

            return gen_wrapper

        if not (inclusive or item or after):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec[0] += 1
                frame = [clock(), 0.0]
                push(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - frame[0]
                    pop()
                    rec[1] += elapsed - frame[1]
                    stack[-1][1] += elapsed

            return wrapper

        tracer = self

        @functools.wraps(fn)
        def full_wrapper(*args, **kwargs):
            rec[0] += 1
            rec[4] += 1
            frame = [clock(), 0.0]
            push(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                pop()
                rec[1] += elapsed - frame[1]
                stack[-1][1] += elapsed
                rec[4] -= 1
                if inclusive and not rec[4]:
                    rec[3] += elapsed
                if item:
                    tracer.item_s.append(elapsed)
            if after:
                tracer._hook(after, args, kwargs, result)
            return result

        return full_wrapper

    # -- installation ------------------------------------------------------

    def _counter_hooks(self, modules):
        counts = self.counts
        attacking_data = getattr(modules.get("graphs"), "attacking_data", None)

        def perms(args, kwargs, result):
            h = args[0] if args else kwargs["h"]
            counts["perms_scanned"] += factorial(h.n)
            counts["perms_kept"] += len(result)

        def edge_subsets(args, kwargs, result):
            mu = args[0] if args else kwargs["mu"]
            counts["edge_subsets"] += 1 << len(attacking_data(mu).g_plus.edges)

        return {
            "macdonald.non_attacking_fillings": {"per_call": lambda: FillingCounter(counts)},
            "chromatic.n_lambda": {"after": perms},
            "chromatic.n_tilde": {"after": perms},
            "jack.jack_power": {"after": edge_subsets},
        }

    def install(self, package="macchroma"):
        """Wrap the package's traced functions; ``uninstall`` undoes it.

        Modules, classes, tables and hooked functions that the package no
        longer has are skipped, so the metrics built on them read 0.
        """
        root = importlib.import_module(package)
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
        namespaces = [vars(root)] + [vars(mod) for mod in modules.values()]
        hooks = self._counter_hooks(modules)
        verify = vars(modules["verify"]) if "verify" in modules else {}
        items = {id(fn) for table in ITEM_TABLES for fn in verify.get(table, {}).values()}

        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
                if not (inspect.isfunction(target) and target.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TRACED.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = self.wrap(obj, name, inclusive=name in INCLUSIVE,
                                             item=id(obj) in items, **hooks.get(name, {}))

        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    self._swap(ns, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._swap(obj, key, wrapped[id(value)])

        cli = vars(modules["cli"]) if "cli" in modules else {}
        if "json" in cli:
            proxy = types.SimpleNamespace(**vars(cli["json"]))
            proxy.dumps = self.wrap(cli["json"].dumps, "cli.json.dumps", inclusive=True)
            self._swap(cli, "json", proxy)

        for cls_name in RING_CLASSES:
            cls = getattr(modules.get("rings"), cls_name, None)
            if cls is None:
                continue
            for attr, obj in list(vars(cls).items()):
                if attr in ("__setattr__", "__repr__") or (attr.startswith("_") and not attr.endswith("__")):
                    continue
                name = f"rings.{cls_name}.{attr}"
                if inspect.isfunction(obj):
                    new = self.wrap(obj, name)
                elif isinstance(obj, classmethod):
                    new = classmethod(self.wrap(obj.__func__, name))
                else:
                    continue
                self._restore.append((cls, attr, obj, True))
                setattr(cls, attr, new)

    def _swap(self, mapping, key, new):
        self._restore.append((mapping, key, mapping[key], False))
        mapping[key] = new

    def uninstall(self):
        for target, key, old, is_attr in reversed(self._restore):
            if is_attr:
                setattr(target, key, old)
            else:
                target[key] = old
        self._restore.clear()

    def report(self) -> dict:
        recs = self.records.items()
        return {
            "calls": {name: r[0] for name, r in recs if r[0]},
            "self_s": {name: r[1] for name, r in recs if r[0]},
            "yielded": {name: r[2] for name, r in recs if r[2]},
            "inclusive_s": {name: r[3] for name, r in recs if r[3]},
            "counts": dict(self.counts),
            "item_s": list(self.item_s),
            "trace_s": self.trace_s,
        }
