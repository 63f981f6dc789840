"""Spans around the program's public functions, wrapped from outside.

:func:`install` replaces every public function and public method of the
loaded ``sparsegap`` modules with a wrapper that records a span (name,
layer, start, end, parent) and rebinds every module-level reference to the
original, so calls made through ``from x import f`` names are seen too.
The LAPACK-backed entry points of ``numpy.linalg`` (and ``scipy.linalg``,
when the program has loaded it) are wrapped to count factorisations; each
count goes to the innermost open span, and a factorisation that calls
another counts once.  Spans stay in memory until the process writes them
out at its end.

:func:`layer_metrics` derives the per-layer metrics from the spans.  A
function that no longer exists simply has no spans and reads as 0.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "sparsegap"

# A module's layer is its short name, except that the run manifest is part
# of the command-line layer.
LAYER_OF_MODULE = {"manifest": "cli"}

# Report serialisation methods, wherever the report class lives, form
# their own layer so that they count neither as cli nor as signals time.
SERIALIZE_METHODS = {"to_json", "to_csv", "to_dict"}

FACTORIZATIONS = (
    "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky",
    "solve", "lstsq", "inv", "pinv", "det", "slogdet", "matrix_rank", "cond",
    "tensorsolve", "tensorinv", "lu", "lu_factor", "lu_solve", "cho_factor",
    "cho_solve", "schur", "hessenberg", "orth", "null_space", "polar", "qz",
    "solve_triangular",
)


class Tracer:
    """In-memory span recorder with factorisation counts per span."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, factorisations]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._linalg_depth = 0

    def span(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def counted(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def factorization(*args, **kwargs):
            if self._linalg_depth == 0 and stack:
                spans[stack[-1]][5] += 1
            self._linalg_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._linalg_depth -= 1

        return factorization


def program_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(replacements: dict) -> None:
    """Point every program-module global that holds an original at its wrapper.

    ``replacements`` maps ``id(original)`` to ``(original, wrapper)``.
    """
    for mod in program_modules():
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _wrap_class(tracer: Tracer, cls: type, short: str, layer: str) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        span_layer = "serialize" if attr in SERIALIZE_METHODS else layer
        name = f"{short}.{cls.__name__}.{attr}"
        if isinstance(member, types.FunctionType):
            setattr(cls, attr, tracer.span(member, name, span_layer))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.span(member.__func__, name, span_layer)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.span(member.__func__, name, span_layer)))


def install(tracer: Tracer) -> None:
    """Wrap the loaded program modules and the linear-algebra entry points."""
    replacements: dict = {}
    for mod in program_modules():
        if mod.__name__ == PACKAGE:
            continue
        short = mod.__name__.split(".")[-1]
        layer = LAYER_OF_MODULE.get(short, short)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replacements[id(obj)] = (obj, tracer.span(obj, f"{short}.{attr}", layer))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                _wrap_class(tracer, obj, short, layer)
    namespaces = [sys.modules.get(n) for n in ("numpy.linalg", "numpy.linalg._linalg", "scipy.linalg")]
    for ns in filter(None, namespaces):
        for name in FACTORIZATIONS:
            fn = getattr(ns, name, None)
            if callable(fn):
                if id(fn) not in replacements:
                    replacements[id(fn)] = (fn, tracer.counted(fn))
                setattr(ns, name, replacements[id(fn)][1])
    rebind(replacements)


def _inclusive(spans, durations, ancestors, pred) -> float:
    """Total time of spans matching ``pred`` that have no matching ancestor."""
    return sum(durations[i] for i, s in enumerate(spans)
               if pred(s) and not any(pred(spans[a]) for a in ancestors[i]))


def layer_metrics(spans: list[list], rows: int) -> dict:
    """Per-layer metrics of one traced run from its spans and report row count."""
    n = len(spans)
    durations = [s[3] - s[2] for s in spans]
    self_time = list(durations)
    ancestors: list[tuple] = []
    for i, s in enumerate(spans):
        p = s[4]
        if p >= 0:
            self_time[p] -= durations[i]
        ancestors.append(((p,) + ancestors[p]) if p >= 0 else ())

    def named(name):
        return lambda s: s[0] == name

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def layer_self(layer):
        return sum(self_time[i] for i in range(n) if spans[i][1] == layer)

    def layer_factorizations(layer):
        return sum(s[5] for s in spans if s[1] == layer)

    def incl(pred):
        return _inclusive(spans, durations, ancestors, pred)

    under_signals = sum(s[5] for i, s in enumerate(spans)
                        if s[1] == "signals" or any(spans[a][1] == "signals" for a in ancestors[i]))
    return {
        "dictionary.build_s": incl(lambda s: s[0].startswith("dictionary.build_")),
        "dictionary.factorizations": layer_factorizations("dictionary"),
        "dictionary.load_s": incl(named("dictionary.load_dictionary")),
        "dictionary.complement_s": incl(named("dictionary.Dictionary.complement")),
        "dictionary.subdictionary_calls": calls("dictionary.Dictionary.subdictionary"),
        "rank_bounds.rank_report_s": incl(named("rank_bounds.rank_report")),
        "rank_bounds.numerical_rank_calls": calls("rank_bounds.numerical_rank"),
        "rank_bounds.numerical_rank_s": incl(named("rank_bounds.numerical_rank")),
        "rank_bounds.factorizations": layer_factorizations("rank_bounds"),
        "rank_bounds.projector_calls": calls("rank_bounds.projector_onto_range"),
        "rank_bounds.projector_s": incl(named("rank_bounds.projector_onto_range")),
        "signals.experiment_s": incl(lambda s: s[1] == "signals"),
        "signals.self_s": layer_self("signals"),
        "signals.draw_s": incl(named("signals.draw_generic_signal")),
        "signals.residual_s": incl(named("signals.residual_over")),
        "signals.rank_condition_s": incl(named("signals.rank_condition")),
        "signals.factorizations_per_trial": under_signals / rows if rows else 0.0,
        "random_subsets.subset_statistics_s": incl(named("random_subsets.subset_statistics")),
        "random_subsets.subset_statistics_calls": calls("random_subsets.subset_statistics"),
        "random_subsets.sample_s": incl(named("random_subsets.sample_uniform_subset")),
        "random_subsets.self_s": layer_self("random_subsets"),
        "thresholds.evaluate_s": incl(lambda s: s[1] == "thresholds"),
        "cli.serialize_s": incl(lambda s: s[1] == "serialize"),
        "cli.self_s": layer_self("cli"),
    }
