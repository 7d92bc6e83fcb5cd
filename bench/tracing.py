"""Spans and work counters around euclidlab's public functions.

Nothing inside the package is edited: ``Tracer.install`` rebinds each
traced function, in every euclidlab module that refers to it, to a
wrapper that records a span (name, start, end, parent span, operation
id) in memory.  Counters that need the result of a call are computed
after the operation ends, so their cost never lands inside a span.
Spans are written out once, when the traced run ends.

Metrics are named ``<module>.<function>.<counter>``; ``s`` is the
wall-clock time in outermost calls.  What each layer should move, written down before
measuring:

* ``monoids.divisors`` (``candidates`` is the number of elements of norm
  at most the input, the definitional scan's work) and
  ``monoids.enumerate_up_to``: ``latency_p50_ms``, ``ops_per_s`` and
  ``peak_rss_mb`` on queries; no change on the survey workloads.
* ``monoids.DivisibilityTable``: about 1% of survey time; speeding it up
  alone should not move survey-refute or survey-holds.
* ``proportion.transitivity_survey`` and the derived
  ``factorization.gcd_uf_flags.s`` (a three-property survey minus its
  table, transitivity and Euclid-lemma spans): ``ops_per_s`` and
  ``latency_tail_ms`` on survey-refute.
* ``factorization.euclid_lemma_survey`` (``pairs``: products the scan
  tries): ``ops_per_s`` on survey-holds, and on survey-refute.
* ``factorization.factorizations``, ``factorization.algebraic_gcd``:
  ``ops_per_s`` and ``latency_tail_ms`` on queries (``factorizations``
  also builds the UF witnesses on survey-refute).
* ``proportion.pythagorean``, ``specparse.*``: ``latency_p50_ms`` on
  queries.
* ``euclid.*``: ``latency_tail_ms`` on queries (trace operations).
* ``cli.render.s`` (``run_command`` minus its traced children, so it
  holds argument parsing and JSON rendering): ``latency_tail_ms`` on
  survey-refute, whose reports reach hundreds of KB.
* ``proc.import_s``: ``setup_s`` on every workload.
* ``wall.*``: the end-to-end timings as the wall clock read them, before
  the host-speed scaling of ``hostspeed.py``, and
  ``host.calibration_ms``, the calibration loop's median time; they
  show how fast the host ran, not what euclidlab did.
* ``*.errors`` (exceptions raised; by type in the span file):
  ``correct_frac``.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

from verify import space

#: (module, function) pairs traced; ``DivisibilityTable`` is a class, so
#: its ``__init__`` is wrapped in place.
TRACED = (
    ("cli", "run_command"),
    ("specparse", "parse_monoid_spec"),
    ("specparse", "parse_element"),
    ("monoids", "divisors"),
    ("monoids", "enumerate_up_to"),
    ("monoids", "DivisibilityTable"),
    ("factorization", "three_property_survey"),
    ("factorization", "euclid_lemma_survey"),
    ("factorization", "factorizations"),
    ("factorization", "algebraic_gcd"),
    ("proportion", "transitivity_survey"),
    ("proportion", "pythagorean"),
    ("euclid", "euclid_subtractive"),
    ("euclid", "check_loop_invariants"),
)

_EXTRA = {
    "monoids.divisors": ("candidates", "found", "useful_ratio"),
    "monoids.enumerate_up_to": ("elements",),
    "monoids.DivisibilityTable": ("elements", "relations"),
    "proportion.transitivity_survey": ("witnesses",),
    "factorization.euclid_lemma_survey": ("pairs",),
    "factorization.factorizations": ("found",),
    "proportion.pythagorean": ("found",),
    "euclid.euclid_subtractive": ("steps",),
    "cli.run_command": ("json_bytes",),
}
_TIME_ONLY = {"specparse.parse_monoid_spec", "specparse.parse_element"}
_UNITS = {"s": "s", "useful_ratio": "ratio", "json_bytes": "bytes"}

# Spans the derived ``factorization.gcd_uf_flags.s`` subtracts from a
# three-property survey: everything else in it is the gcd and UF flags.
_SURVEY_PARTS = {"monoids.DivisibilityTable", "proportion.transitivity_survey",
                 "factorization.euclid_lemma_survey"}


def _per_layer() -> list[tuple[str, str]]:
    out = []
    for module, func in TRACED:
        name = f"{module}.{func}"
        fields = ["s"] if name in _TIME_ONLY else ["calls", "s"]
        fields += list(_EXTRA.get(name, ())) + ["errors"]
        out += [(f"{name}.{f}", _UNITS.get(f, "count")) for f in fields]
        if name == "factorization.three_property_survey":
            out.append(("factorization.gcd_uf_flags.s", "s"))
        if name == "cli.run_command":
            out.append(("cli.render.s", "s"))
    out += [("proc.import_s", "s"), ("trace.ops_per_s", "1/s"),
            ("trace.overhead_frac", "ratio"), ("wall.ops_per_s", "1/s"),
            ("wall.latency_p50_ms", "ms"), ("wall.latency_tail_ms", "ms"),
            ("wall.setup_s", "s"), ("host.calibration_ms", "ms")]
    return out


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = _per_layer()


def euclid_scan_pairs(table, flag) -> int:
    """(a, b) products the Euclid-lemma scan tries before it stops.

    The scan walks irreducibles p in table order and, for each, every
    pair of elements p does not divide; it stops at the first failure.
    Computed from the table's public ``divides``/``is_irreducible``.
    """
    n = len(table.elements)
    stop = None
    if flag.witnesses:
        w = flag.witnesses[0]
        stop = tuple(table.index[e.parts] for e in (w.irreducible, w.a, w.b))
    total = 0
    for pi in range(n):
        if not table.is_irreducible(pi):
            continue
        coprime = [i for i in range(n) if not table.divides(pi, i)]
        if stop is not None and pi == stop[0]:
            return (total + coprime.index(stop[1]) * len(coprime)
                    + coprime.index(stop[2]) + 1)
        total += len(coprime) ** 2
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, op id)
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counters: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self._deferred: list = []
        self._tables: list = []     # (parent span, table) built this op

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "euclidlab" or n.startswith("euclidlab.")]
        for module_name, func in TRACED:
            module = importlib.import_module(f"euclidlab.{module_name}")
            name = f"{module_name}.{func}"
            original = getattr(module, func)
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.split(".")[1], None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            self._depth[name] += 1
            self.counters[name + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                self._depth[name] -= 1
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id,
                                   self._depth[name] == 0)
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    # -- counters taken from results (work deferred to the op's end) --------

    def _after_divisors(self, idx, args, kwargs, result):
        x = args[0]
        self._deferred.append(("divisors", space(x.monoid.spec_text()),
                               x.parts, len(result)))

    def _after_enumerate_up_to(self, idx, args, kwargs, result):
        self.counters["monoids.enumerate_up_to.elements"] += len(result)

    def _after_DivisibilityTable(self, idx, args, kwargs, result):
        table = args[0]
        self.counters["monoids.DivisibilityTable.elements"] += len(table.elements)
        self.counters["monoids.DivisibilityTable.relations"] += len(table.quotient)
        self._tables.append((self.spans[idx][3], table))

    def _after_transitivity_survey(self, idx, args, kwargs, result):
        flag = result.flags["pythagorean_transitive"]
        self.counters["proportion.transitivity_survey.witnesses"] += len(flag.witnesses)

    def _after_euclid_lemma_survey(self, idx, args, kwargs, result):
        table = next(t for parent, t in self._tables if parent == idx)
        self._deferred.append(("euclid", table, result))

    def _after_factorizations(self, idx, args, kwargs, result):
        self.counters["factorization.factorizations.found"] += len(result)

    def _after_pythagorean(self, idx, args, kwargs, result):
        self.counters["proportion.pythagorean.found"] += result is not None

    def _after_euclid_subtractive(self, idx, args, kwargs, result):
        self.counters["euclid.euclid_subtractive.steps"] += len(result.steps)

    def _after_run_command(self, idx, args, kwargs, result):
        code, text = result
        if "--json" in args[0] and code in (0, 1):
            self.counters["cli.run_command.json_bytes"] += len(text.encode())

    def end_op(self) -> None:
        """Settle the counters deferred while the operation ran."""
        for item in self._deferred:
            if item[0] == "divisors":
                _, monoid, parts, found = item
                self.counters["monoids.divisors.candidates"] += monoid.count_up_to(parts)
                self.counters["monoids.divisors.found"] += found
            else:
                _, table, flag = item
                self.counters["factorization.euclid_lemma_survey.pairs"] += \
                    euclid_scan_pairs(table, flag)
        self._deferred.clear()
        self._tables.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans and counters, by metric name."""
        out = defaultdict(float, self.counters)
        child_time: defaultdict = defaultdict(float)
        survey_parts: defaultdict = defaultdict(float)
        for name, start, end, parent, _, outermost in self.spans:
            if outermost:
                out[name + ".s"] += end - start
            if parent >= 0:
                child_time[parent] += end - start
                if name in _SURVEY_PARTS:
                    survey_parts[parent] += end - start
        for idx, (name, start, end, *_) in enumerate(self.spans):
            if name == "cli.run_command":
                out["cli.render.s"] += end - start - child_time[idx]
            elif name == "factorization.three_property_survey":
                out["factorization.gcd_uf_flags.s"] += \
                    end - start - survey_parts[idx]
        for (name, _), count in self.errors.items():
            out[name + ".errors"] += count
        cands = out["monoids.divisors.candidates"]
        out["monoids.divisors.useful_ratio"] = (
            out["monoids.divisors.found"] / cands if cands else 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON array per line, then the error tally."""
        with open(path, "w") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "op",
                                "outermost"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            f.write(json.dumps({"errors": {f"{n}:{t}": c for (n, t), c
                                           in sorted(self.errors.items())}})
                    + "\n")
