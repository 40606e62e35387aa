"""Per-layer spans for speccy, recorded from outside the library.

`Tracer.install()` replaces the public functions of every `speccy.*` module
(plus a few named private ones and class methods) by timing wrappers.
Because modules bind each other's functions with `from .lattice import
ball_sweep`, a wrapper is written into *every* `speccy.*` namespace that
holds the original object, not only into the defining module.

Every call updates an aggregate per span name: calls, inclusive seconds
(outermost activation only, so recursion is not double counted), self
seconds (duration minus the time covered by child spans) and work counters.
Span records (name, start, end, parent, job) are kept in memory for the job
span and the two levels below it and are written out by the caller.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Helpers whose whole body costs about as much as a wrapper call; their
# time is left in the caller's self time instead of being its own span.
SKIP = {
    "linalg": {"identity_matrix", "mat_mul", "mat_vec", "transpose", "mat_fraction",
               "floor_sqrt_fraction", "sqrt_fraction_exact"},
    "imq": {"kronecker_symbol", "ord_p"},
    "serialize": {"frac_str", "parse_frac", "coset_label"},
    "lattice": {"is_fundamental_discriminant"},
    # command handlers are the job itself; only the output layer is a span
    "cli": {"build_parser", "cmd_disc", "cmd_theta", "cmd_eisenstein", "cmd_degrees",
            "cmd_chowla", "cmd_verify", "default_precision", "run", "main"},
}

# Private functions that are layers of their own.
PRIVATE = {
    "cm": ("_cm_order_data",),
    "imq": ("_form_histogram", "_lderiv_cached"),
    "cli": ("_emit",),
}

# (module, class, attribute, span name suffix); "" as suffix names the
# constructor span `<module>.<Class>`.
METHODS = [
    ("cyclotomic", "CycNum", "__mul__", "mul"),
    ("cyclotomic", "CycNum", "__rmul__", "mul"),
    ("cyclotomic", "CycNum", "__add__", "add"),
    ("cyclotomic", "CycNum", "__radd__", "add"),
    ("cyclotomic", "CycNum", "is_zero", "is_zero"),
    ("weil", "ScaledMatrix", "matmul", "matmul"),
    ("weil", "ScaledMatrix", "apply", "apply"),
    ("weil", "ScaledMatrix", "__eq__", "eq"),
    ("weil", "WeilRep", "omega_S", "omega_S"),
    ("weil", "WeilRep", "omega_T", "omega_T"),
    ("weil", "WeilRep", "omega_Z", "omega_Z"),
    ("weil", "WeilRep", "rep_matrix", "rep_matrix"),
    ("weil", "WeilRep", "apply", "apply"),
    ("weil", "WeilRep", "__init__", ""),
    ("cm", "QuaternionAlgebra", "mul", "mul"),
    ("cm", "QuaternionAlgebra", "ramified_primes", "ramified_primes"),
    ("cm", "QuaternionOrder", "__init__", ""),
    ("cm", "QuaternionOrder", "reduced_discriminant", "reduced_discriminant"),
    ("lattice", "QuadLattice", "__init__", ""),
    ("lattice", "DiscriminantGroup", "__init__", ""),
    ("lattice", "DiscriminantGroup", "index_of", "index_of"),
    ("lattice", "DiscriminantGroup", "coset_by_index", "coset_by_index"),
    ("pullback", "EmbeddingContext", "build", "build"),
    ("eisenstein", "EisensteinPackage", "from_lattice", "from_lattice"),
    ("imq", "ImQField", "from_discriminant", "from_discriminant"),
]

MODULES = ("linalg", "lattice", "cyclotomic", "weil", "qseries", "imq", "eisenstein",
           "cm", "pullback", "serialize", "cli")

# Spans deeper than this (job span = 0) are aggregated but not recorded.
RECORD_DEPTH = 2


def _terms(x):
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


def _result_len(args, result):
    return len(result)


def _operand_terms(args, result):
    return _terms(args[0]) + _terms(args[1])


# Work counters: span -> (aggregate key, count taken from a call's
# arguments and result).
COUNTERS = {
    "lattice.ball_sweep": ("vectors", _result_len),
    "lattice.enumerate_coset_vectors": ("vectors", _result_len),
    "lattice.glue_cosets": ("pairs", _result_len),
    "cyclotomic.CycNum.mul": ("operand_terms_total", _operand_terms),
}


class Tracer:
    """Aggregates and span records of one process; not thread safe."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self._stack = [[0.0, -1]]   # [child seconds, record index] per open span
        self._active = {}
        self._job = None
        self._installed = []

    # -- spans ---------------------------------------------------------

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return stat

    def wrap(self, name, fn, cached=False):
        stat = self._stat(name)
        if cached:
            stat.update(hits=0, misses=0, miss_s=0.0)
        counter = COUNTERS.get(name)
        if counter is not None:
            key, count = counter
            stat[key] = 0
        stack = self._stack
        active = self._active
        spans = self.spans
        active[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack) - 1
            if cached:
                misses = fn.cache_info().misses
            idx = -1
            t0 = perf_counter()
            if depth <= RECORD_DEPTH:
                idx = len(spans)
                spans.append([name, t0, None, stack[-1][1], self._job])
            frame = [0.0, idx]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                stack[-1][0] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - frame[0]
                if not active[name]:
                    stat["s"] += dur
                if idx >= 0:
                    spans[idx][2] = t1
            if cached:
                if fn.cache_info().misses > misses:
                    stat["misses"] += 1
                    stat["miss_s"] += dur
                else:
                    stat["hits"] += 1
            if counter is not None:
                stat[key] += count(args, result)
            return result

        return wrapper

    def job(self, job_id):
        """Context manager for one job span; returns the seconds covered by
        top-level layer spans via the `covered` attribute afterwards."""
        return _JobSpan(self, job_id)

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the layers of every imported speccy module in place."""
        import speccy.cli  # noqa: F401  (imports every layer)

        replace = {}
        for short in MODULES:
            mod = sys.modules[f"speccy.{short}"]
            names = [n for n, v in vars(mod).items()
                     if callable(v) and not isinstance(v, type)
                     and getattr(v, "__module__", None) == mod.__name__
                     and not n.startswith("_") and n not in SKIP.get(short, ())]
            names += PRIVATE.get(short, ())
            for n in names:
                fn = getattr(mod, n)
                span = f"{short}.{n}"
                replace[id(fn)] = (fn, self.wrap(span, fn, hasattr(fn, "cache_info")))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "speccy" and not mod_name.startswith("speccy."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, val))
        for short, cls_name, attr, suffix in METHODS:
            cls = getattr(sys.modules[f"speccy.{short}"], cls_name)
            raw = cls.__dict__[attr]
            span = f"{short}.{cls_name}" + (f".{suffix}" if suffix else "")
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(span, raw.__func__))
            else:
                new = self.wrap(span, raw)
            setattr(cls, attr, new)
            self._installed.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, val in reversed(self._installed):
            setattr(owner, attr, val)
        self._installed.clear()

    def dump(self):
        return {"stats": self.stats,
                "spans": [s for s in self.spans if s[2] is not None]}


class _JobSpan:
    def __init__(self, tracer, job_id):
        self.tracer = tracer
        self.job_id = job_id
        self.covered = 0.0
        self.seconds = 0.0

    def __enter__(self):
        tr = self.tracer
        tr._job = self.job_id
        self.idx = len(tr.spans)
        self.t0 = perf_counter()
        tr.spans.append(["job", self.t0, None, -1, self.job_id])
        tr._stack.append([0.0, self.idx])
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = perf_counter()
        frame = tr._stack.pop()
        tr.spans[self.idx][2] = t1
        self.covered = frame[0]
        self.seconds = t1 - self.t0
        tr._job = None
        return False


def merge_stats(into, stats):
    """Add one process's aggregates into a running total."""
    for name, stat in stats.items():
        tot = into.setdefault(name, {})
        for key, val in stat.items():
            tot[key] = tot.get(key, 0) + val
    return into
