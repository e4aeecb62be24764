"""Per-layer spans recorded from outside the package.

The tracer replaces public functions and methods of `permres` with timing
wrappers, at every module attribute that holds the original object, so each
caller's own lookup (`permres.cli.betti_oracle`, `permres.oracle.betti_oracle`,
`rank_of_rows` in both `permres.oracle` and `permres.tensorspace`, ...) lands
in the wrapper.  A layer's self time is its spans' duration minus the time
covered by wrapped calls made inside them, so the self times of all layers
plus the benchmark's own root span add up to the traced wall time.
"""

import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# Rank calls are split into small and large by nonzero rows x columns at the
# dense-path limit of the original `rank_of_rows`, frozen here so the split
# stays comparable when a change moves the dispatch.
DENSE_SHAPE_LIMIT = 4_000_000


class MissingHookError(RuntimeError):
    """A name the tracer must wrap is absent; per-layer numbers would read
    as zeros instead of failing."""


# (layer, defining module, attribute path, modules that must hold the same
# object under the same name).  The identity scan in `install` also finds
# aliases not listed here; the listed ones must exist.
SPANS = (
    ("cli", "permres.cli", "main", ()),
    ("cli.handler", "permres.cli", "cmd_hilbert", ()),
    ("cli.handler", "permres.cli", "cmd_betti", ()),
    ("cli.handler", "permres.cli", "cmd_lascoux", ()),
    ("cli.handler", "permres.cli", "cmd_bott", ()),
    ("cli.handler", "permres.cli", "cmd_sr", ()),
    ("cli.handler", "permres.cli", "cmd_verify", ()),
    ("cache", "permres.cache", "ResultCache.get_or_compute", ()),
    ("cache.read", "permres.cache", "ResultCache.get", ()),
    ("cache.write", "permres.cache", "ResultCache.put", ()),
    ("oracle.betti", "permres.oracle", "betti_oracle", ("permres.cli",)),
    ("oracle.hilbert", "permres.oracle", "hilbert_oracle", ("permres.cli",)),
    ("oracle.quotient", "permres.oracle", "quotient_basis", ()),
    ("modular.agree", "permres.modular", "agree_over_primes", ()),
    ("modular.rank", "permres.modular", "rank_of_rows",
     ("permres.oracle", "permres.tensorspace")),
    ("modular.rref", "permres.modular", "rref_of_rows", ("permres.oracle",)),
    ("tensorspace.mww", "permres.tensorspace", "monomials_with_weight",
     ("permres.oracle",)),
    ("tensorspace.monomials", "permres.tensorspace", "monomials",
     ("permres.oracle",)),
    ("ideals.expand", "permres.ideals", "expand_generators",
     ("permres.oracle",)),
    ("lascoux.terms", "permres.lascoux", "lascoux_terms", ()),
    ("lascoux.bott", "permres.lascoux", "resolution_via_bott", ()),
    ("simplicial", "permres.simplicial", "skeleton_complex", ("permres.cli",)),
    ("simplicial", "permres.simplicial", "perm2_complex", ("permres.cli",)),
    ("simplicial", "permres.simplicial", "alexander_dual_ideal",
     ("permres.cli",)),
    ("simplicial", "permres.simplicial", "SimplicialComplex.f_vector", ()),
    ("simplicial", "permres.simplicial", "SimplicialComplex.h_vector", ()),
    ("verify", "permres.verify", "run_suite", ()),
)

ROOT = "bench"

# Layers recorded besides the spans: rank calls by size (hooks below), the
# tracer's own argument inspection, and audit recomputation (AuditClock).
HOOK_LAYERS = ("modular.rank.small", "modular.rank.large", "cache.audit",
               "trace")
LAYERS = frozenset(span[0] for span in SPANS) | {ROOT, *HOOK_LAYERS}


class AuditClock:
    """Times the recomputation of audited cache hits, so that the warm
    replay can be timed without the seed-dependent audit sample.  Installed
    before a Tracer, it sits inside the tracer's cache span."""

    def __init__(self, result_cache_cls):
        self.seconds = 0.0
        original = result_cache_cls.get_or_compute
        clock = self

        def get_or_compute(cache, compute, **fields):
            audits = cache.audits
            spent = [0.0]

            def timed_compute():
                started = _clock()
                try:
                    return compute()
                finally:
                    spent[0] += _clock() - started

            try:
                return original(cache, timed_compute, **fields)
            finally:
                if cache.audits != audits:
                    clock.seconds += spent[0]

        functools.update_wrapper(get_or_compute, original)
        result_cache_cls.get_or_compute = get_or_compute


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []          # [layer, start, time covered by children]
        self._active = defaultdict(int)

    # -- spans -----------------------------------------------------------

    def enter(self, layer):
        self._active[layer] += 1
        self._stack.append([layer, _clock(), 0.0])

    def leave(self):
        end = _clock()
        layer, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        self._active[layer] -= 1
        if not self._active[layer]:
            # outermost span of this layer: nested ones are already inside
            self.total_s[layer] += duration
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def values(self):
        """Every recorded number, flat: `<layer>.calls` and `<layer>.s` over
        outermost spans, `<layer>.self_s`, and the hooks' counts and maxima."""
        out = {f"{layer}.calls": n for layer, n in self.calls.items()}
        out.update((f"{key}.s", v) for key, v in self.total_s.items())
        out.update((f"{layer}.self_s", v) for layer, v in self.self_s.items())
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def charge(self, layer, seconds):
        """Book time spent outside any wrapped call (the tracer's own
        argument inspection) to `layer`, as a child of the current span."""
        self.self_s[layer] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def span(self, layer, fn, *args, **kwargs):
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every name in SPANS; raise MissingHookError if one is gone."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and
                   (name == "permres" or name.startswith("permres."))}
        for layer, modname, path, aliases in SPANS:
            module = modules.get(modname)
            if module is None:
                raise MissingHookError(f"module {modname} is not loaded")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise MissingHookError(f"{modname}.{path} is missing")
            original = owner.__dict__.get(attr) if outer else \
                getattr(owner, attr, None)
            if not callable(original):
                raise MissingHookError(f"{modname}.{path} is missing")
            wrapper = self._wrap(layer, original)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for alias in aliases:
                if getattr(modules.get(alias), attr, None) is not original:
                    raise MissingHookError(
                        f"{alias}.{attr} no longer refers to {modname}.{attr}")
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, layer, fn):
        hook = _HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return self.span(layer, fn, *args, **kwargs)
            return hook(self, layer, fn, args, kwargs)

        return wrapper


# -- hooks that record counts at the layer boundary -------------------------


def _rank_hook(tracer, layer, fn, args, kwargs):
    started = _clock()
    rows = list(args[0])
    nonzero = [r for r in rows if r]
    nnz = sum(map(len, nonzero))
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    if ncols is None and nonzero:
        ncols = max(max(r) for r in nonzero) + 1
    size = "small" if len(nonzero) * (ncols or 0) <= DENSE_SHAPE_LIMIT \
        else "large"
    tracer.charge("trace", _clock() - started)
    tracer.enter(layer)
    try:
        return fn(rows, *args[1:], **kwargs)
    finally:
        seconds = tracer.leave()
        tracer.counts["modular.rank.nnz"] += nnz
        tracer.maxima["modular.rank.max_rows"] = max(
            tracer.maxima["modular.rank.max_rows"], len(nonzero))
        tracer.maxima["modular.rank.max_nnz"] = max(
            tracer.maxima["modular.rank.max_nnz"], nnz)
        tracer.counts[f"modular.rank.{size}.calls"] += 1
        tracer.total_s[f"modular.rank.{size}"] += seconds


def _rref_hook(tracer, layer, fn, args, kwargs):
    started = _clock()
    rows = list(args[0])
    tracer.counts["modular.rref.nnz"] += sum(map(len, rows))
    tracer.charge("trace", _clock() - started)
    return tracer.span(layer, fn, rows, *args[1:], **kwargs)


def _agree_hook(tracer, layer, fn, args, kwargs):
    value, primes = tracer.span(layer, fn, *args, **kwargs)
    if len(primes) > 2:
        tracer.counts["modular.agree.tiebreaks"] += 1
    return value, primes


def _output_hook(tracer, layer, fn, args, kwargs):
    out = tracer.span(layer, fn, *args, **kwargs)
    tracer.counts[f"{layer}.out"] += len(out)
    return out


def _cache_hook(tracer, layer, fn, args, kwargs):
    cache = args[0]
    before = (cache.hits, cache.misses, cache.audits)
    try:
        return tracer.span(layer, fn, *args, **kwargs)
    finally:
        tracer.counts["cache.hits"] += cache.hits - before[0]
        tracer.counts["cache.misses"] += cache.misses - before[1]
        tracer.counts["cache.audits"] += cache.audits - before[2]


_HOOKS = {
    "modular.rank": _rank_hook,
    "modular.rref": _rref_hook,
    "modular.agree": _agree_hook,
    "tensorspace.mww": _output_hook,
    "tensorspace.monomials": _output_hook,
    "cache": _cache_hook,
}
