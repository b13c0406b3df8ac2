"""Spans around the calls into psiforge's modules, recorded from outside.

The tracer replaces every public module-level function of each layer with a
wrapper, in every psiforge namespace that holds the function (a name
imported with ``from .x import f`` is a second reference and is wrapped
too).  A span's self time is its duration minus the time of the spans it
encloses, so by construction the self times of all layers plus the
benchmark's own time (traced wall minus top-level spans) make the traced
wall time.

Per-element helpers (``TernaryOperator.__call__`` is a method and is never
wrapped; the functions in PER_ELEMENT run once per tuple of a sweep) would
swamp the run with spans; their time stays in the caller's self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

LAYERS = (
    "boolean_core",
    "ternary_operator",
    "contact_relation",
    "topo_models",
    "filter_congruence",
    "duality_frames",
    "morphisms",
    "terms",
    "enumeration",
    "verify",
    "cli",
)

PER_ELEMENT = {
    "boolean_core": {"apply_automorphism", "bool_eval"},
    "ternary_operator": {"mu", "mu_iter", "box_op", "discriminator_d", "discriminator_t"},
    "duality_frames": {"in_l_set", "diamond_r", "box_r"},
    "terms": {"eval_term"},
    "enumeration": {"permute_relation_bits", "permute_operator_table"},
}

CANONICAL = ("enumeration.canonical_relation_bits", "enumeration.canonical_operator_table")
CANDIDATES = ("enumeration.sentence_holds_everywhere", "enumeration.check_psi_quiet")
POOLS = ("verify.psi_operator_pool", "verify.bamo_operator_pool")


class Tracer:
    """Aggregated spans: per function, calls, self and inclusive seconds."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.open_names: list[str] = []
        self.child_s: list[float] = []
        self.root_s = 0.0
        self.counts = {"raw_models": 0, "ecas_out": 0, "candidates": 0, "kept": 0}
        self._patched: list[tuple] = []

    def _after(self, name: str, result) -> None:
        if name == "enumeration.canonical_relation_bits" and "enumeration.enumerate_ecas" in self.open_names:
            self.counts["raw_models"] += 1
        elif name == "enumeration.enumerate_ecas":
            self.counts["ecas_out"] += len(result)
        elif name in CANDIDATES:
            self.counts["candidates"] += 1
            self.counts["kept"] += bool(result)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # work on pool threads is waited for inside the caller's span
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            self.open_names.append(name)
            self.child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.open_names.pop()
                child = self.child_s.pop()
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
                if self.child_s:
                    self.child_s[-1] += dt
                else:
                    self.root_s += dt
            self._after(name, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "psiforge" or n.startswith("psiforge.")]
        for layer in LAYERS:
            mod = sys.modules[f"psiforge.{layer}"]
            skip = PER_ELEMENT.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def self_s(self, prefix: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        return sum(s[0] for name, s in self.stats.items() if name.startswith(prefix + "."))

    def fn(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer numbers, as (value, unit) pairs, for a traced wall time."""
        out: dict[str, tuple] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s(layer), "s")
            out[f"{layer}.calls"] = (self.calls(layer), "count")
        for name in (
            "ternary_operator.check_3bamo",
            "ternary_operator.check_psi",
            "ternary_operator.check_strict",
            "contact_relation.check_eca",
            "contact_relation.rel_to_op",
            "filter_congruence.filter_is_closed",
            "filter_congruence.filter_is_closed_su_mid",
            "duality_frames.dual_frame",
            "duality_frames.check_psi_frame",
            "duality_frames.complex_algebra",
            "terms.holds",
            "enumeration.enumerate_ecas",
            "cli.main",
        ):
            out[f"{name}.self_s"] = (self.fn(name)[1], "s")
        out["terms.holds.calls"] = (self.fn("terms.holds")[0], "count")
        out["enumeration.canonical.self_s"] = (sum(self.fn(n)[1] for n in CANONICAL), "s")
        c = self.counts
        out["enumeration.raw_models"] = (c["raw_models"], "count")
        out["enumeration.ecas_yield"] = (c["ecas_out"] / c["raw_models"] if c["raw_models"] else 0.0, "ratio")
        out["enumeration.candidates"] = (c["candidates"], "count")
        out["enumeration.candidate_yield"] = (c["kept"] / c["candidates"] if c["candidates"] else 0.0, "ratio")
        out["verify.pools_s"] = (sum(self.fn(n)[2] for n in POOLS), "s")
        out["bench.self_s"] = (wall_s - self.root_s, "s")
        out["trace.wall_s"] = (wall_s, "s")
        return out
