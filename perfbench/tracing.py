"""Outside-in tracing of plurican: spans recorded around calls into each layer.

`Tracer.install` replaces every public function of the plurican modules,
wherever a plurican module holds it (module namespaces and the dispatch
dicts in them), plus a few public methods, with a wrapper that records a
span: name, start, end, parent span and op id.  Spans live in flat arrays
and are written out once, at the end.  Counts come from the arguments and
results of the wrapped calls.  Nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

# plurican modules; a layer is named after its module without the leading "_"
MODULES = ("f2geom", "glgroup", "evenclass", "invariants", "torsion", "arrangements",
           "_pool", "cli")
METHODS = (
    ("glgroup", "F2Matrix", "point_permutation"),
    ("torsion", "AutAction", "from_table"),
    ("torsion", "AutAction", "from_matrix"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# Work counts, from the arguments and result of one call.  A method's
# arguments include self or cls first.
COUNTERS = {
    "glgroup.enumerate_gl": lambda a, kw, r: {
        "candidates": 1 << (_arg(a, kw, 0, "k") ** 2), "kept": len(r)},
    "evenclass.enumerate_totally_even": lambda a, kw, r: {
        "candidates": comb(15, _arg(a, kw, 0, "size")), "kept": len(r)},
    "glgroup.burnside_orbit_count": lambda a, kw, r: {
        "images": len({s.mask for s in _arg(a, kw, 0, "sets")})
        * len(_arg(a, kw, 1, "group"))},
    "arrangements.compute_incidences": lambda a, kw, r: {
        "pairs": comb(len(_arg(a, kw, 0, "arr").lines), 2), "points": len(r.points)},
    "torsion.from_table": lambda a, kw, r: {"entries": _sized(_arg(a, kw, 2, "mapping"))},
    "torsion.orbit_count": lambda a, kw, r: {
        "elements": _arg(a, kw, 0, "G").order,
        "applications": _arg(a, kw, 0, "G").order * _sized(_arg(a, kw, 1, "generators"))},
    "pool.filter_deterministic": lambda a, kw, r: {"items": len(_arg(a, kw, 0, "items"))},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: dict[tuple[int, str, str], int] = defaultdict(int)
        self._restore: list = []

    def wrap(self, name: str, fn):
        if name not in self.names:  # installed again in a later round
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[tracer.op, name, key] += n
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every plurican module, in place."""
        pkg = importlib.import_module("plurican")
        mods = {m: importlib.import_module(f"plurican.{m}") for m in MODULES}
        wrapped = {}
        for m, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{m.lstrip('_')}.{attr}", fn)
        for m, cls_name, attr in METHODS:
            cls = getattr(mods[m], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(f"{m}.{attr}", raw.__func__))
            else:
                new = self.wrap(f"{m}.{attr}", raw)
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))
        for ns in [vars(pkg)] + [vars(mod) for mod in mods.values()]:
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in wrapped:
                    ns[key] = wrapped[value]
                    self._restore.append((ns, key, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            value[k] = wrapped[v]
                            self._restore.append((value, k, v))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def write(self, path, op_names: list[str]) -> None:
        """Write every span as one JSON line, after a header naming ids."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "ops": op_names,
                                 "span": ["name", "start", "end", "parent", "op"]}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                fh.write(json.dumps(row) + "\n")

    def per_op(self) -> dict[str, dict[int, float]]:
        """Per-op totals: '<fn>.busy_s', '<fn>.self_s', '<fn>.calls', the
        counters, '<layer>.self_s' and '<layer>.busy_s' (outermost spans)."""
        n = len(self.span_name)
        parents = self.span_parent
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer = [layer_of[nid] for nid in self.span_name]
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        nested = [False] * n  # some ancestor span is in the same layer
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
            while p >= 0 and layer[p] != layer[i]:
                p = parents[p]
            nested[i] = p >= 0
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            name = self.names[self.span_name[i]]
            lay = layer[i]
            op = self.span_op[i]
            self_time = dur[i] - child[i]
            out[f"{name}.busy_s"][op] += dur[i]
            out[f"{name}.self_s"][op] += self_time
            out[f"{name}.calls"][op] += 1
            out[f"{lay}.self_s"][op] += self_time
            if not nested[i]:
                out[f"{lay}.busy_s"][op] += dur[i]
        for (op, name, key), value in self.counts.items():
            out[f"{name}.{key}"][op] += value
        return out

