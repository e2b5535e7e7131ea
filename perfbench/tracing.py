"""Spans and counts around calls into csw's modules, installed from outside.

`Tracer.install` wraps each target function and patches every binding of it
in `csw.*`: csw modules bind names at import (`analysis.dual_norm`,
`hull.simplex_solve`), so patching only the defining module would miss most
calls.  `Tracer.uninstall` puts every original object back and reports any
attribute that is not identical to it afterwards.

The recorder keeps spans in memory: name, start, end, parent span and job
id.  A span's self time is its duration minus the durations of its direct
children; calls nest in one thread, so children never overlap.  Hot
functions (called per hull instance or per pairing) are aggregated into the
per-name totals without keeping one record per call.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, keep one span per call).  A dotted attribute names a
# method.  Count-only targets have no span and no timing.
TIMED = (
    ("simplex", "simplex_solve", True),
    ("hull", "dual_norm", True),
    ("hull", "polar_support", True),
    ("hull", "in_symmetric_hull", False),
    ("hull", "norming_max", False),
    ("vectors", "pair", False),
    ("schemes", "build_scheme", True),
    ("schemes", "check_axioms", True),
    ("schemes", "scheme_dumps", True),
    ("schemes", "Scheme.minimal_containing", False),
    ("schemes", "Scheme.containing_sets", False),
    ("norming", "build_eps_family", True),
    ("norming", "build_K_family", True),
    ("norming", "norm", False),
    ("norming", "family_from_json", True),
    ("norming", "family_to_json", True),
    ("norming", "family_dumps", True),
    ("analysis", "basis_constant", True),
    ("analysis", "coherence_report", True),
    ("analysis", "well_definedness_report", True),
    ("analysis", "check_biorthogonality", True),
    ("cli", "main", True),
    ("cli", "_load_scheme", True),
    ("cli", "_load_family", True),
    ("cli", "_json_text", True),
    ("cli", "_csv_text", True),
    ("cli", "_write_atomic", True),
)
COUNTED = (
    ("vectors", "parse_rational"),
    ("vectors", "parse_vector"),
    ("schemes", "position_map"),
)
MAX_KEPT_SPANS = 200_000


class Recorder:
    """Spans and counters for one traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = ""
        self.spans = []        # (id, parent id, name, job, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []       # [name, start, child time, id, kept parent id]
        self._next_id = 0

    def enter(self, name, keep):
        parent_id = None
        if self._stack:
            top = self._stack[-1]
            parent_id = top[3] if top[3] is not None else top[4]
        span_id = None
        if keep and len(self.spans) < MAX_KEPT_SPANS:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, span_id, parent_id])

    def exit(self):
        end = self.clock()
        name, start, child, span_id, parent_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if span_id is not None:
            self.spans.append((span_id, parent_id, name, self.job, start, end))


def _bits(values):
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _on_simplex(rec, args, kwargs, sol):
    objective = args[0] if args else kwargs["objective"]
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    rec.counts["simplex.cells"] += len(constraints) * len(objective)
    rec.counts[f"simplex.{sol.status}"] += 1
    values = [sol.objective] if sol.objective is not None else []
    values += sol.primal or []
    for cert in sol.certificate.values():
        values += cert or []
    rec.maxima["simplex.max_bits"] = max(rec.maxima["simplex.max_bits"], _bits(values))


def _on_membership(rec, args, kwargs, cert):
    if cert.method == "direct":
        rec.counts["hull.direct_calls"] += 1


def _on_family(rec, args, kwargs, family):
    rec.counts["norming.functionals"] += sum(len(f) for f in family.families.values())


def _on_load(rec, args, kwargs, result):
    rec.counts["cli.bytes_read"] += os.path.getsize(args[0])


def _on_write(rec, args, kwargs, result):
    rec.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


HOOKS = {
    "simplex.simplex_solve": _on_simplex,
    "hull.in_symmetric_hull": _on_membership,
    "norming.build_eps_family": _on_family,
    "norming.build_K_family": _on_family,
    "cli._load_scheme": _on_load,
    "cli._load_family": _on_load,
    "cli._write_atomic": _on_write,
}


def _timed(rec, name, fn, keep, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result
    return wrapper


def _counted(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _csw_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "csw" or n.startswith("csw."))]


class Tracer:
    """Installs and removes the wrappers; one install at a time."""

    def __init__(self):
        self._patched = []     # (owner, attribute, original, wrapper)

    def install(self, rec):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = list(TIMED) + [(m, a, None) for m, a in COUNTED]
        modules = _csw_modules()
        for module_name, attr, keep in targets:
            module = importlib.import_module(f"csw.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(module, attr)
                bindings = [(mod, b) for mod in modules
                            for b, v in vars(mod).items() if v is original]
            name = f"{module_name}.{attr}"
            wrapper = (_counted(rec, name, original) if keep is None
                       else _timed(rec, name, original, keep, HOOKS.get(name)))
            for owner, binding in bindings:
                setattr(owner, binding, wrapper)
                self._patched.append((owner, binding, original, wrapper))

    def uninstall(self):
        """Restore every binding; return the ones not identical afterwards."""
        patched, self._patched = self._patched, []
        for owner, attr, original, _ in reversed(patched):
            setattr(owner, attr, original)
        wrappers = {id(w) for *_, w in patched}
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig, _ in patched
               if vars(o).get(a) is not orig]
        for mod in _csw_modules():
            bad += [f"{mod.__name__}.{k}" for k, v in vars(mod).items()
                    if id(v) in wrappers]
        return bad


def _layer_self(rec, layer):
    return sum(v for n, v in rec.self_time.items() if n.split(".")[0] == layer)


def layer_metrics(rec):
    """The per-layer metrics of one recorder, by name."""
    c, t = rec.calls, rec.total
    membership = c["hull.in_symmetric_hull"]
    direct = rec.counts["hull.direct_calls"]
    return {
        "simplex.calls": c["simplex.simplex_solve"],
        "simplex.s": t["simplex.simplex_solve"],
        "simplex.cells": rec.counts["simplex.cells"],
        "simplex.optimal": rec.counts["simplex.optimal"],
        "simplex.infeasible": rec.counts["simplex.infeasible"],
        "simplex.unbounded": rec.counts["simplex.unbounded"],
        "simplex.max_bits": rec.maxima["simplex.max_bits"],
        "hull.dual_norm_calls": c["hull.dual_norm"],
        "hull.dual_norm_s": t["hull.dual_norm"],
        "hull.polar_support_calls": c["hull.polar_support"],
        "hull.polar_support_s": t["hull.polar_support"],
        "hull.membership_calls": membership,
        "hull.direct_calls": direct,
        "hull.direct_ratio": direct / membership if membership else 0.0,
        "hull.self_s": _layer_self(rec, "hull"),
        "vectors.pair_calls": c["vectors.pair"],
        "vectors.pair_s": t["vectors.pair"],
        "vectors.parse_calls": (rec.counts["vectors.parse_rational"]
                                + rec.counts["vectors.parse_vector"]),
        "schemes.build_s": t["schemes.build_scheme"],
        "schemes.check_axioms_calls": c["schemes.check_axioms"],
        "schemes.check_axioms_s": t["schemes.check_axioms"],
        "schemes.lookup_calls": (c["schemes.minimal_containing"]
                                 + c["schemes.containing_sets"]),
        "schemes.lookup_s": (t["schemes.minimal_containing"]
                             + t["schemes.containing_sets"]),
        "schemes.position_map_calls": rec.counts["schemes.position_map"],
        "norming.build_s": t["norming.build_eps_family"] + t["norming.build_K_family"],
        "norming.functionals": rec.counts["norming.functionals"],
        "norming.norm_calls": c["norming.norm"],
        "norming.norm_s": t["norming.norm"],
        "norming.from_json_s": t["norming.family_from_json"],
        "norming.to_json_s": t["norming.family_to_json"],
        "analysis.basis_constant_s": t["analysis.basis_constant"],
        "analysis.coherence_s": t["analysis.coherence_report"],
        "analysis.welldef_s": t["analysis.well_definedness_report"],
        "analysis.biorth_s": t["analysis.check_biorthogonality"],
        "analysis.self_s": _layer_self(rec, "analysis"),
        "cli.self_s": _layer_self(rec, "cli"),
        "cli.load_s": t["cli._load_scheme"] + t["cli._load_family"],
        "cli.dump_s": (t["schemes.scheme_dumps"] + t["norming.family_dumps"]
                       + t["cli._json_text"] + t["cli._csv_text"]
                       + t["cli._write_atomic"]),
        "cli.bytes_read": rec.counts["cli.bytes_read"],
        "cli.bytes_written": rec.counts["cli.bytes_written"],
    }


def unit(name):
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or name == "simplex.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def per_pass(setup, passes, count):
    """One set-up plus the mean of `count` traced passes; maxima and ratios
    are taken over everything."""
    out = {}
    for name, value in setup.items():
        value += passes[name] / count
        out[name] = int(value) if unit(name) != "s" and value == int(value) else value
    out["simplex.max_bits"] = max(setup["simplex.max_bits"],
                                  passes["simplex.max_bits"])
    membership = out["hull.membership_calls"]
    out["hull.direct_ratio"] = (out["hull.direct_calls"] / membership
                                if membership else 0.0)
    return out


def self_check():
    """Exactness of self time on synthetic spans, and identity of every
    patched attribute after an install/uninstall cycle.  Returns failures."""
    failures = []
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    rec = Recorder(clock=lambda: next(ticks))
    rec.job = "synthetic"
    rec.enter("a.outer", True)      # 0 .. 10
    rec.enter("b.left", True)       # 1 .. 4
    rec.enter("c.inner", False)     # 2 .. 3
    rec.exit()
    rec.exit()
    rec.enter("d.right", True)      # 5 .. 9
    rec.exit()
    rec.exit()
    want_self = {"a.outer": 3, "b.left": 2, "c.inner": 1, "d.right": 4}
    if dict(rec.self_time) != want_self:
        failures.append(f"self time {dict(rec.self_time)} != {want_self}")
    parents = {name: parent for _, parent, name, *_ in rec.spans}
    ids = {name: sid for sid, _, name, *_ in rec.spans}
    if parents != {"a.outer": None, "b.left": ids["a.outer"],
                   "d.right": ids["a.outer"]}:
        failures.append(f"span parents {parents}")
    tracer = Tracer()
    tracer.install(Recorder())
    if not tracer._patched:
        failures.append("install patched nothing")
    failures += [f"not restored: {b}" for b in tracer.uninstall()]
    return failures
