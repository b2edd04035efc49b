"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces public functions of ``pcfcert`` with wrappers
and rebinds each wrapper in every ``pcfcert`` module namespace that holds
the original (``iterate`` in ``obstructions`` and ``cli``, ``resultant`` in
``orbits`` and ``obstructions``, ...).  ``uninstall`` puts every original
back.  The program's files are never changed.

A span records name, start, end, parent span and request id; spans stay in
memory and are written out at the end of the run.  Per-coefficient hot
paths (``NFElem`` construction, ``Poly.divmod``) get counters, not spans.
Polynomial arithmetic recurses into itself down to the coefficients, so a
``polyring`` call opens a span only when no ``polyring`` span is open: the
span marks the boundary into the layer, and the work below it is its self
time.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from functools import wraps
from time import perf_counter

# metric prefix -> wrapped functions as (module, attribute path); a prefix
# "layer.fn" without an entry wraps pcfcert.layer.fn
_SPAN_TARGETS = {
    "polyring.mul": [("polyring", "Poly.__mul__"), ("polyring", "Poly.__pow__")],
    "polyring.exact_div": [("polyring", "Poly.exact_div")],
    "polyring.resultant": [("polyring", "resultant"), ("polyring", "discriminant")],
}
SPANS = (
    "polyring.mul", "polyring.exact_div", "polyring.resultant", "polyring.gcd_poly",
    "numfield.nf_new", "numfield.primes_above", "numfield.valuation",
    "numfield.reduce_poly_mod_prime",
    "finitefield.factor", "finitefield.hensel_lift",
    "orbits.gleason", "orbits.misiurewicz", "orbits.exact_type", "orbits.orbit_value",
    "factoring.iterate", "factoring.f_factor", "factoring.verify_factorization",
    "factoring.structural_form", "factoring.stability_certificate",
    "factoring.f_irreducibility_certificate",
    "obstructions.disc_iterate", "obstructions.nonabelian_certificate",
    "obstructions.ideal_power_audit",
    "jsonio.dumps",
    "cli.build_parser", "cli.resolve_field", "cli.parse_scalar_literal", "cli.run",
)
COUNTERS = {
    "polyring.divmod.calls": ("polyring", "Poly.divmod"),
    "numfield.nfelem.constructed": ("numfield", "NFElem.__init__"),
}
# cli.run is the whole request; only its self time (argument dispatch and
# output) is a layer of its own
_SELF_ONLY = ("cli.run",)


def _metric_list():
    out = []
    for name in SPANS:
        if name not in _SELF_ONLY:
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.total_s", "s", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name == "factoring.iterate":
            out += [
                ("factoring.iterate.hit_ratio", "ratio", "higher"),
                ("factoring.iterate.max_degree", "count", "lower"),
                ("factoring.iterate.max_coeff_bits", "bits", "lower"),
            ]
        if name == "jsonio.dumps":
            out.append(("jsonio.bytes", "bytes", "lower"))
    out += [(name, "count", "lower") for name in COUNTERS]
    out.append(("trace_overhead_ratio", "ratio", "lower"))
    return out


# (name, unit, better) of every per-layer metric, as in BENCHMARK.json
METRICS = _metric_list()

_INT = re.compile(r"-?\d+")


def _max_int_bits(obj) -> int:
    """Largest bit length of an integer string anywhere in a JSON value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max((_max_int_bits(v) for v in obj), default=0)
    if isinstance(obj, str) and _INT.fullmatch(obj):
        return int(obj).bit_length()
    return 0


def _resolve(module: str, path: str):
    """(owner, attribute, original) for pcfcert.<module>.<path>."""
    owner = importlib.import_module(f"pcfcert.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.iterate_calls = 0
        self.iterate_repeats = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.json_bytes = 0
        self._stack: list[int] = []
        self._polyring_open = False
        self._request = 0
        self._iterates: dict = {}  # (request, id(field), d, k) -> f^k, until flush
        self._undo: list = []
        self._t0 = perf_counter()

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        polyring = name.startswith("polyring.")
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if polyring:
                if self._polyring_open:
                    return fn(*args, **kwargs)
                self._polyring_open = True
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if polyring:
                    self._polyring_open = False
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_iterate(self, args, result) -> None:
        field, d, k = args[:3]
        key = (self._request, id(field), d, k)
        self.iterate_calls += 1
        if key in self._iterates:
            self.iterate_repeats += 1
        else:
            self._iterates[key] = result
            self.max_degree = max(self.max_degree, result.degree)

    def _after_dumps(self, args, result) -> None:
        self.json_bytes += len(result.encode())

    def request(self, main):
        """Wrap ``cli.main`` so each call is a root span with a new request id."""
        span = self._span("request", main)

        @wraps(main)
        def wrapper(argv):
            self._request += 1
            return span(argv)

        return wrapper

    def flush(self) -> None:
        """Measure coefficient sizes of the iterates seen since the last flush.

        Runs after a pass, outside every timed region; the size goes
        through the public ``jsonio.poly_json`` so it does not depend on how
        a polynomial is represented.
        """
        from pcfcert.jsonio import poly_json

        for poly in self._iterates.values():
            self.max_coeff_bits = max(self.max_coeff_bits, _max_int_bits(poly_json(poly)))
        self._iterates.clear()

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        after = {"factoring.iterate": self._after_iterate, "jsonio.dumps": self._after_dumps}
        plan = []
        for name in SPANS:
            layer, fn = name.split(".")
            for module, path in _SPAN_TARGETS.get(name, [(layer, fn)]):
                owner, attr, original = _resolve(module, path)
                plan.append((owner, attr, original, self._span(name, original, after.get(name))))
        for name, (module, path) in COUNTERS.items():
            owner, attr, original = _resolve(module, path)
            plan.append((owner, attr, original, self._counter(name, original)))
        modules = [m for n, m in sys.modules.items() if n == "pcfcert" or n.startswith("pcfcert.")]
        try:
            for owner, attr, original, wrapper in plan:
                if isinstance(owner, type):
                    self._rebind(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [calls, total_s, self_s]; total_s counts a span only when
        no enclosing span has the same name, self_s excludes child spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in ("request", *SPANS)}
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[2] += end - start - child[i]
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                row[1] += end - start
        return out

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric; sums are per traced pass over the menu."""
        totals = self.layer_totals()
        values = {}
        for name in SPANS:
            calls, total, self_s = totals[name]
            values[f"{name}.calls"] = calls / passes
            values[f"{name}.total_s"] = total / passes
            values[f"{name}.self_s"] = self_s / passes
        values["factoring.iterate.hit_ratio"] = (
            self.iterate_repeats / self.iterate_calls if self.iterate_calls else 0.0
        )
        values["factoring.iterate.max_degree"] = self.max_degree
        values["factoring.iterate.max_coeff_bits"] = self.max_coeff_bits
        values["jsonio.bytes"] = self.json_bytes / passes
        for name, count in self.counts.items():
            values[name] = count / passes
        values["trace_overhead_ratio"] = overhead_ratio
        return {name: values[name] for name, _, _ in METRICS}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self._t0, "end": end - self._t0,
                    "parent": parent, "request": request,
                }) + "\n")
