"""Spans around the public functions of each ``stanley`` module.

``Tracer.install`` wraps every function in ``LAYERS`` and rebinds the name
in every ``stanley`` module that holds it (``witness.greedy_extend``,
``witness.verify`` and ``modset.product``, which ``to_modular`` calls, are
separate bindings), plus the ``__post_init__`` of ``StanleyPrefix`` and
``ResidueSet``.  Nothing under ``src/`` is edited.

A span is (name, parent, start, end), kept in flat arrays while the run
lasts and written out by ``dump`` at its end.  Exact counts (terms, nodes,
residues, ...) are tallied at the same boundaries, after the span closes,
so they cost no span time.  ``layer_metrics`` turns the spans and counts of
one pass into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable

STRATEGIES = (
    "trivial-zero",
    "even-ladder",
    "mod60-family",
    "mod28-table",
    "mod30-table",
    "small-case-search",
)

#: Every per-layer metric the traced run prints, with its unit.  The names
#: are the ``per_layer`` list of BENCHMARK.json; METRICS.md defines each.
PER_LAYER: dict[str, str] = {
    "core.greedy_extend.calls": "count",
    "core.greedy_extend.self_s": "s",
    "core.greedy_extend.terms": "count",
    "core.greedy_extend.terms_per_s": "1/s",
    "core.StanleyPrefix.validate_s": "s",
    "core.StanleyPrefix.validated_terms": "count",
    "core.omitted_set.self_s": "s",
    "core.omitted_set.scanned": "count",
    "core.detect_character.self_s": "s",
    "modset.verify.calls": "count",
    "modset.verify.self_s": "s",
    "modset.verify.residues": "count",
    "modset.verify.pairs": "count",
    "modset.verify.rejects": "count",
    "modset.product.calls": "count",
    "modset.product.self_s": "s",
    "modset.to_modular.self_s": "s",
    "modset.to_modular.steps": "count",
    "modset.ResidueSet.constructions": "count",
    "modset.ResidueSet.validate_s": "s",
    "families.build_family.calls": "count",
    "families.build_family.self_s": "s",
    "families.build_family.distinct_ratio": "ratio",
    "search.search_near_modular.calls": "count",
    "search.search_near_modular.self_s": "s",
    "search.search_near_modular.nodes": "count",
    "search.search_near_modular.nodes_per_s": "1/s",
    "search.search_near_modular.found": "count",
    "search.search_near_modular.exhausted": "count",
    "search.search_near_modular.budget_exceeded": "count",
    "witness.witness_for.self_s": "s",
    "witness.execute_and_verify.self_s": "s",
    **{f"witness.execute_and_verify.{s}.total_s": "s" for s in STRATEGIES},
    "witness.load_appendix.s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Exact counts for one pass, filled in by the wrappers."""

    def __init__(self) -> None:
        self.n: Counter[str] = Counter()
        self.family_ids: set[str] = set()


def _count_greedy(t: Tally, args: tuple, out: Any) -> None:
    t.n["core.greedy_extend.terms"] += len(out) - len(args[0])


def _count_prefix(t: Tally, args: tuple, out: Any) -> None:
    t.n["core.StanleyPrefix.validated_terms"] += len(args[0].terms)


def _count_omitted(t: Tally, args: tuple, out: Any) -> None:
    t.n["core.omitted_set.scanned"] += out.scan_bound


def _count_verify(t: Tally, args: tuple, out: Any) -> None:
    a = args[0]
    t.n["modset.verify.residues"] += a.modulus
    t.n["modset.verify.pairs"] += len(a) * (len(a) + 1) // 2
    t.n["modset.verify.rejects"] += not out.is_near_modular


def _count_to_modular(t: Tally, args: tuple, out: Any) -> None:
    t.n["modset.to_modular.steps"] += out[1]


def _count_family(t: Tally, args: tuple, out: Any) -> None:
    t.family_ids.add(str(args[0]))


def _count_search(t: Tally, args: tuple, out: Any) -> None:
    t.n["search.search_near_modular.nodes"] += out.nodes
    t.n[f"search.search_near_modular.{out.status}"] += 1


def _strategy_label(args: tuple) -> str:
    return f"witness.execute_and_verify.{args[0].strategy}"


#: (span name or label function, module, attribute, count function).  A
#: dotted attribute names a method of a class in that module.
LAYERS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    ("core.greedy_extend", "stanley.core", "greedy_extend", _count_greedy),
    ("core.StanleyPrefix", "stanley.core", "StanleyPrefix.__post_init__", _count_prefix),
    ("core.omitted_set", "stanley.core", "omitted_set", _count_omitted),
    ("core.detect_character", "stanley.core", "detect_character", None),
    ("modset.verify", "stanley.modset", "verify", _count_verify),
    ("modset.product", "stanley.modset", "product", None),
    ("modset.to_modular", "stanley.modset", "to_modular", _count_to_modular),
    ("modset.ResidueSet", "stanley.modset", "ResidueSet.__post_init__", None),
    ("families.build_family", "stanley.families", "build_family", _count_family),
    ("search.search_near_modular", "stanley.search", "search_near_modular", _count_search),
    ("witness.witness_for", "stanley.witness", "witness_for", None),
    (_strategy_label, "stanley.witness", "execute_and_verify", None),
    ("witness.load_appendix", "stanley.witness", "load_appendix", None),
)


def rebind(module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attribute`` by ``make(original)`` wherever it is bound.

    Functions are rebound in every loaded ``stanley`` module that holds the
    same object; a ``Class.method`` attribute is replaced on the class.
    """
    module = sys.modules[module_name]
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, method, make(getattr(owner, method)))
        return
    original = getattr(module, attribute)
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if name != "stanley" and not name.startswith("stanley."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


class Tracer:
    """In-memory span store; spans are recorded only while ``recording``."""

    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.tally = Tally()

    def install(self) -> None:
        for label, module, attribute, count in LAYERS:
            rebind(module, attribute, lambda fn, lbl=label, cnt=count: self._wrap(fn, lbl, cnt))

    def _name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _wrap(self, fn: Callable, label: Any, count: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(self._name_id(label if isinstance(label, str) else label(args)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.tally, args, out)
            return out

        return traced

    def mark(self) -> int:
        """Begin a pass: fresh counts, and the index its first span gets."""
        self.tally = Tally()
        return len(self.start)

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``mark`` returned ``first``."""
        durations: defaultdict[str, float] = defaultdict(float)
        selfs: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        own = [self.end[i] - self.start[i] for i in range(first, len(self.start))]
        for i in range(first, len(self.start)):
            parent = self.parent[i]
            if parent >= first:
                own[parent - first] -= self.end[i] - self.start[i]
        for i in range(first, len(self.start)):
            name = self.names[self.name[i]]
            durations[name] += self.end[i] - self.start[i]
            selfs[name] += own[i - first]
            calls[name] += 1

        n = self.tally.n
        search = "search.search_near_modular"
        evaluate = "witness.execute_and_verify"
        m: dict[str, float] = {key: n[key] for key in (
            "core.greedy_extend.terms", "core.StanleyPrefix.validated_terms",
            "core.omitted_set.scanned", "modset.verify.residues", "modset.verify.pairs",
            "modset.verify.rejects", "modset.to_modular.steps", f"{search}.nodes",
            f"{search}.found", f"{search}.exhausted", f"{search}.budget_exceeded")}
        for layer in ("core.greedy_extend", "modset.verify", "modset.product",
                      "families.build_family", search):
            m[f"{layer}.calls"] = calls[layer]
        for layer in ("core.greedy_extend", "core.omitted_set", "core.detect_character",
                      "modset.verify", "modset.product", "modset.to_modular",
                      "families.build_family", search, "witness.witness_for"):
            m[f"{layer}.self_s"] = selfs[layer]
        m["core.greedy_extend.terms_per_s"] = _ratio(
            n["core.greedy_extend.terms"], selfs["core.greedy_extend"])
        m["core.StanleyPrefix.validate_s"] = selfs["core.StanleyPrefix"]
        m["modset.ResidueSet.constructions"] = calls["modset.ResidueSet"]
        m["modset.ResidueSet.validate_s"] = selfs["modset.ResidueSet"]
        m["families.build_family.distinct_ratio"] = _ratio(
            len(self.tally.family_ids), calls["families.build_family"])
        m[f"{search}.nodes_per_s"] = _ratio(n[f"{search}.nodes"], selfs[search])
        m[f"{evaluate}.self_s"] = sum(selfs[f"{evaluate}.{s}"] for s in STRATEGIES)
        for s in STRATEGIES:
            m[f"{evaluate}.{s}.total_s"] = durations[f"{evaluate}.{s}"]
        return m

    def dump(self, path: str, t0: float) -> None:
        """Write every span, times in ns since ``t0``, as gzipped JSON."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": [round((s - t0) * 1e9) for s in self.start],
                    "end_ns": [round((e - t0) * 1e9) for e in self.end],
                },
                out,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
