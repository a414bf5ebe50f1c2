"""The four seeded workloads: inputs, one op, and an output check per op.

Each workload builds one *pass* of op inputs from the seed; a run repeats
the same pass, so every pass does the same work and a run's figures do not
depend on where the clock stopped.  The seed only shapes the inputs (order,
sampled spaces, which witnesses are corrupted); the package sees nothing
else.  All calls go through ``stanley.<name>`` so that the traced run's
rebound names are the ones called.

Checks run outside the timed region and return a message on failure.  They
rest on facts recomputed here (the character formula, the six forbidden
values, a naive oracle), not on the package's own verdicts alone.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Any

import stanley as st

from oracle import is_near_modular

#: The six unattainable characters, restated rather than imported.
FORBIDDEN = frozenset({1, 3, 5, 9, 11, 15})


def _character(a: Any) -> int:
    return 2 * a.max_element + 1 - a.modulus


def _sweep_check(lam: int, out: Any) -> str | None:
    """Shared part of the sweep checks; None means look at the result."""
    if lam in FORBIDDEN:
        if isinstance(out, st.ForbiddenCharacterError):
            return None
        return f"lambda={lam}: expected ForbiddenCharacterError, got {out!r}"
    if isinstance(out, BaseException):
        return f"lambda={lam}: raised {out!r}"
    return None


class DeepSweep:
    """Every stride-th character of the flagship range from a seeded offset,
    deep-verified; the six forbidden characters are checked once a run."""

    name = "deep-sweep"
    op = "witness_for(lambda) then execute_and_verify(recipe, deep=True) at the default deep_cap"
    sizes = {"full": {"lambda_max": 2000, "stride": 41}, "smoke": {"lambda_max": 40, "stride": 3}}
    #: Run and checked once before the clock, outside every pass.
    once = sorted(FORBIDDEN)

    def prepare(self, rng: random.Random, size: dict) -> list[int]:
        # A pass samples 0..lambda_max (``stanley coverage --max 2000``)
        # rather than truncating it: past lambda ~ 730 the deep phase
        # regrows 1024-term prefixes, and those characters carry ~90% of
        # the range's time.  The stride is odd, so each pass holds both
        # parities alike; the cost of an op depends on the parity there.
        offset = rng.randrange(size["stride"])
        lams = [lam for lam in range(offset, size["lambda_max"] + 1, size["stride"])
                if lam not in FORBIDDEN]
        rng.shuffle(lams)
        return lams

    def run(self, lam: int) -> Any:
        return st.execute_and_verify(st.witness_for(lam), deep=True)

    def check(self, lam: int, out: Any) -> str | None:
        problem = _sweep_check(lam, out)
        if problem or lam in FORBIDDEN:
            return problem
        if _character(out.witness) != lam:
            return f"lambda={lam}: witness has character {_character(out.witness)}"
        if out.profile is None:
            return f"lambda={lam}: deep phase skipped"
        if "doubling-structure" not in out.checks or "omitted-bound" not in out.checks:
            return f"lambda={lam}: deep checks missing from {out.checks}"
        if out.profile.character != lam:
            return f"lambda={lam}: greedy profile has character {out.profile.character}"
        return None

    def count(self, counts: Counter, lam: int, out: Any) -> None:
        counts["verified_residues"] += out.witness.modulus
        counts["search_nodes"] += out.search_nodes
        counts["modular_terms"] += len(out.modular_form)
        counts["doubling_steps"] += out.doubling_steps
        counts["omitted_scan_bound"] += out.omitted.scan_bound


def _corrupt(a: Any, rng: random.Random) -> Any:
    """Move one nonzero element onto another element's residue class.

    Two distinct elements sharing a residue form the triple (x, x, z), so
    the moved copy can never be near-modular.
    """
    elements = list(a.elements)
    i = rng.randrange(1, len(elements))
    j = rng.choice([k for k in range(len(elements)) if k != i])
    target = elements[j] + a.modulus
    while target in elements:
        target += a.modulus
    elements[i] = target
    return st.ResidueSet.of(a.modulus, elements)


class StaticSweep:
    """Every character 0..lambda_max statically verified, some with a
    corrupted copy that verify must reject."""

    name = "static-sweep"
    op = ("witness_for(lambda) then execute_and_verify(recipe, deep=False); for a seeded"
          " 1/8 of characters also verify() on a corrupted copy of the witness")
    sizes = {
        "full": {"lambda_max": 40000, "corrupt_share": 0.125},
        "smoke": {"lambda_max": 300, "corrupt_share": 0.125},
    }

    def prepare(self, rng: random.Random, size: dict) -> list[tuple[int, Any]]:
        lams = list(range(size["lambda_max"] + 1))
        rng.shuffle(lams)
        # The corrupted share is drawn per witness modulus, so each seed
        # corrupts the same number of sets of each size and a run's verify
        # work does not swing with the draw.
        by_modulus: defaultdict[int, list[int]] = defaultdict(list)
        for lam in range(size["lambda_max"] + 1):
            if lam not in FORBIDDEN:
                by_modulus[st.witness_for(lam).expected_modulus].append(lam)
        corrupted = {}
        for modulus in sorted(by_modulus):
            group = by_modulus[modulus]
            for lam in rng.sample(group, round(size["corrupt_share"] * len(group))):
                witness = st.execute_and_verify(st.witness_for(lam)).witness
                if len(witness) > 1:
                    corrupted[lam] = _corrupt(witness, rng)
        return [(lam, corrupted.get(lam)) for lam in lams]

    def run(self, inp: tuple[int, Any]) -> Any:
        lam, corrupted = inp
        result = st.execute_and_verify(st.witness_for(lam))
        return result, (st.verify(corrupted) if corrupted is not None else None)

    def check(self, inp: tuple[int, Any], out: Any) -> str | None:
        lam, corrupted = inp
        problem = _sweep_check(lam, out)
        if problem or lam in FORBIDDEN:
            return problem
        result, verdict = out
        if _character(result.witness) != lam:
            return f"lambda={lam}: witness has character {_character(result.witness)}"
        if result.checks != ("near-modular", "max-element", "modulus", "character"):
            return f"lambda={lam}: static checks {result.checks}"
        if verdict is not None and (verdict.is_near_modular or verdict.witness_violation is None):
            return f"lambda={lam}: corrupted copy {st.format_set(corrupted)} passed verify"
        return None

    def count(self, counts: Counter, inp: tuple[int, Any], out: Any) -> None:
        lam, corrupted = inp
        if lam in FORBIDDEN:
            counts["forbidden"] += 1
            return
        result, _ = out
        counts["verified_residues"] += result.witness.modulus
        counts["search_nodes"] += result.search_nodes
        if corrupted is not None:
            counts["corrupted"] += 1
            counts["verified_residues"] += corrupted.modulus


class LongPrefix:
    """A few seeded witnesses, each grown into one long greedy prefix."""

    name = "long-prefix"
    op = ("to_modular(witness), greedy_extend(modular elements, terms), detect_character"
          " and omitted_set(prefix, prefix.last) for one witness")
    sizes = {
        "full": {"witnesses": 4, "terms": 2048, "lambda_min": 64, "lambda_max": 2047},
        "smoke": {"witnesses": 2, "terms": 64, "lambda_min": 16, "lambda_max": 63},
    }

    def prepare(self, rng: random.Random, size: dict) -> list[tuple[int, Any, int]]:
        pool = [lam for lam in range(size["lambda_min"], size["lambda_max"] + 1)
                if lam not in FORBIDDEN]
        lams = rng.sample(pool, size["witnesses"])
        return [(lam, st.execute_and_verify(st.witness_for(lam)).witness, size["terms"])
                for lam in lams]

    def run(self, inp: tuple[int, Any, int]) -> Any:
        _, witness, terms = inp
        modular, steps = st.to_modular(witness)
        prefix = st.greedy_extend(modular.elements, terms)
        return modular, steps, prefix, st.detect_character(prefix), st.omitted_set(prefix, prefix.last)

    def check(self, inp: tuple[int, Any, int], out: Any) -> str | None:
        lam, witness, terms = inp
        if isinstance(out, BaseException):
            return f"lambda={lam}: raised {out!r}"
        modular, _, prefix, profile, omitted = out
        if modular.max_element >= modular.modulus:
            return f"lambda={lam}: to_modular left {st.format_set(modular)} non-modular"
        if len(prefix) != terms:
            return f"lambda={lam}: prefix has {len(prefix)} terms, asked for {terms}"
        if profile is None or profile.character != st.character_of(witness):
            return f"lambda={lam}: detected profile {profile}"
        if profile.character != lam or _character(witness) != lam:
            return f"lambda={lam}: detected character {profile.character}"
        if profile.levels_verified < 2:
            return f"lambda={lam}: only {profile.levels_verified} levels verified"
        if omitted.omega is not None and omitted.omega >= lam:
            return f"lambda={lam}: omitted value {omitted.omega} reaches the character"
        return None

    def count(self, counts: Counter, inp: tuple[int, Any, int], out: Any) -> None:
        modular, steps, prefix, _, omitted = out
        counts["greedy_terms"] += len(prefix) - len(modular)
        counts["doubling_steps"] += steps
        counts["omitted_scan_bound"] += omitted.scan_bound


class SearchScan:
    """Seeded near-modular search spaces under a fixed node budget."""

    name = "search-scan"
    op = "search_near_modular(SearchSpec(modulus, top, cardinality, budget)) over one space"
    sizes = {
        "full": {"cardinality_min": 4, "cardinality_max": 10, "stride": 3, "budget": 1000},
        "smoke": {"cardinality_min": 4, "cardinality_max": 6, "stride": 3, "budget": 1000},
    }

    def prepare(self, rng: random.Random, size: dict) -> list[Any]:
        # Grid: even moduli from about half the pair count c(c+1)/2 up to it
        # (beyond it no set can cover), tops from half to 3/2 of the
        # modulus.  The seed takes every stride-th top from a seeded offset
        # in each (cardinality, modulus) cell, so each seed samples every
        # cell alike and the found / exhausted / budget mix stays steady.
        specs = []
        for c in range(size["cardinality_min"], size["cardinality_max"] + 1):
            pairs = c * (c + 1) // 2
            for m in range(max(10, 2 * -(-pairs // 4)), pairs + 1, 2):
                tops = range(max(c - 1, m // 2), 3 * m // 2 + 1)
                offset = rng.randrange(size["stride"])
                specs += [st.SearchSpec(m, top, c, budget=size["budget"])
                          for top in tops[offset::size["stride"]]]
        rng.shuffle(specs)
        return specs

    def run(self, spec: Any) -> Any:
        return st.search_near_modular(spec)

    def check(self, spec: Any, out: Any) -> str | None:
        if isinstance(out, BaseException):
            return f"{spec}: raised {out!r}"
        # A scan that runs out has used the budget; whether the node that
        # trips it is counted too is left open.
        if out.status == "budget_exceeded" and not spec.budget <= out.nodes <= spec.budget + 1:
            return f"{spec}: budget exceeded after {out.nodes} nodes"
        if out.status != "budget_exceeded" and out.nodes > spec.budget:
            return f"{spec}: {out.nodes} nodes over the budget"
        if out.status in ("exhausted", "budget_exceeded"):
            return None if out.witness is None else f"{spec}: {out.status} with a witness"
        if out.status != "found":
            return f"{spec}: unknown status {out.status!r}"
        w = out.witness
        if (w.modulus, w.max_element, len(w)) != (spec.modulus, spec.max_element, spec.cardinality):
            return f"{spec}: witness {st.format_set(w)} outside the space"
        if w.elements[0] != 0 or not is_near_modular(w.elements, w.modulus):
            return f"{spec}: oracle rejects witness {st.format_set(w)}"
        return None

    def count(self, counts: Counter, spec: Any, out: Any) -> None:
        counts["search_nodes"] += out.nodes
        counts[out.status] += 1


WORKLOADS = {w.name: w for w in (DeepSweep(), StaticSweep(), LongPrefix(), SearchScan())}
