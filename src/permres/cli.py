"""Batch command-line surface with JSON/CSV envelopes, two-prime verified
oracle values, a persistent result cache, and verification suites.

An oracle value is computed once modulo the product of two random primes,
which checks both primes in one pass, and one prime at a time only when a
pivot of that pass is not a unit (see `agree_over_primes`).

Exit codes: 0 success, 2 formula/oracle mismatch, failed verification,
failed cache audit or three disagreeing primes, 3 resource cap exceeded,
4 invalid parameters, among them a negative step (also `lascoux -j`),
degree or --cap-nonzeros, which is rejected before any cell runs, an
oracle degree of 2^16 or more, a --t or --steps range of more than 2^16
values (`MAX_RANGE`, the same limit, checked before the range is built),
an `sr` --dim that disagrees with -k - 2 or either option given for
perm2, and a cache directory that cannot be opened, read or written (a
message on stderr, nothing on stdout).  A failure with exit 2 or 3 that
leaves no results prints an `error` object (its type and message) next to
the empty results; with --csv that is one row with `error` and `message`
columns.
"""

import argparse
import json
import os
import random
import sys
import time

from . import __version__, formulas, lascoux, verify
from .cache import CacheCorruptionError, ResultCache
from .ideals import FAMILIES, IdealSpec
from .modular import PrimeDisagreementError, agree_over_primes
from .oracle import betti_oracle, hilbert_oracle
from .simplicial import alexander_dual_ideal, perm2_complex, skeleton_complex
from .tensorspace import DEFAULT_NNZ_CAP, ResourceCapError

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_INVALID = 4

CACHE_ENV = "PERMRES_CACHE_DIR"

# most values one --t or --steps range may hold: the oracle's degree limit
MAX_RANGE = 1 << 16

# failures that end in an `error` envelope: exception -> (type, exit code)
_ERRORS = {
    ResourceCapError: ("resource-cap", EXIT_RESOURCE),
    CacheCorruptionError: ("cache-corruption", EXIT_MISMATCH),
    PrimeDisagreementError: ("prime-disagreement", EXIT_MISMATCH),
}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for bad parameters."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _parse_range(text):
    """'3', '2..6', '2:6', or '2,4,6' -> list of ints."""
    text = text.strip()
    for sep in ("..", ":"):
        if sep in text and "," not in text:
            lo, hi = text.split(sep, 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {text!r}")
            if hi - lo >= MAX_RANGE:
                raise ValueError(f"range {text!r} has {hi - lo + 1} values, "
                                 f"more than {MAX_RANGE}")
            return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def _default_cache_dir():
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "permres")


def _open_cache(args):
    directory = args.cache_dir
    if directory is None:
        directory = _default_cache_dir()
    if directory.lower() in ("none", "off", ""):
        directory = None
    return ResultCache(directory, __version__,
                       rng=random.Random(f"audit-{args.prime_seed}"))


def _family(name):
    aliases = {"perm": "subpermanents", "det": "minors", "sqfree": "squarefree"}
    name = aliases.get(name, name)
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILIES}")
    return name


def _cells(args, cache_, kind, cells, formula, oracle):
    """One row per cell: the cell's keys, the closed form
    formula(spec, *keys) (`formulas.hilbert_formula` or `betti_formula`,
    the dispatch `permres verify` checks too), the oracle value
    oracle(spec, *keys, field, cap=cap) agreed over two primes, and whether
    the two match.  Each value is cached under the cell's keys and its
    field's modulus: one file for the pass over both primes, or one per
    prime when the pass falls back.  A negative key or cap is rejected
    before any cell runs."""
    for cell in cells:
        for key, value in cell.items():
            if value < 0:
                raise ValueError(f"{key} must be nonnegative, got {value}")
    if args.cap_nonzeros < 0:
        raise ValueError(
            f"--cap-nonzeros must be nonnegative, got {args.cap_nonzeros}")
    spec = IdealSpec(_family(args.family), args.n, args.kappa)
    cap = None if args.expensive else args.cap_nonzeros
    results = []
    primes = []
    for cell in cells:
        row = dict(cell)
        if args.mode in ("formula", "both"):
            row["formula"] = formula(spec, *cell.values())
        if args.mode in ("oracle", "both"):
            row["oracle"], primes = agree_over_primes(
                lambda f: cache_.get_or_compute(
                    lambda: oracle(spec, *cell.values(), f, cap=cap),
                    prime=f.modulus, kind=kind, family=spec.family, n=spec.n,
                    kappa=spec.kappa, **cell),
                args.prime_seed)
        if row.get("formula") is not None and "oracle" in row:
            row["match"] = row["formula"] == row["oracle"]
        results.append(row)
    return results, primes


def cmd_hilbert(args, cache_):
    cells = [{"t": t} for t in _parse_range(args.t)]
    return _cells(args, cache_, "hilbert", cells, formulas.hilbert_formula,
                  hilbert_oracle)


def cmd_betti(args, cache_):
    steps = _parse_range(args.steps)
    if args.deg is not None and len(steps) != 1:
        raise ValueError("--deg requires a single step")
    cells = [{"step": i,
              "degree": args.kappa + i if args.deg is None else args.deg}
             for i in steps]
    return _cells(args, cache_, "betti", cells, formulas.betti_formula,
                  betti_oracle)


def _term_row(term):
    return {**term._asdict(), "lam_e": list(term.lam_e),
            "lam_f": list(term.lam_f)}


def cmd_lascoux(args, cache_):
    if not (1 <= args.r < args.n):
        raise ValueError("need 1 <= r < n")
    if args.j < 0:
        raise ValueError(f"step must be nonnegative, got {args.j}")
    # each engine runs only when asked for; `both` lists the direct rows
    engines = {"direct": lascoux.lascoux_terms,
               "bott": lascoux.resolution_via_bott}
    asked = ("direct", "bott") if args.engine == "both" else (args.engine,)
    runs = [engines[name](args.n, args.r, args.j) for name in asked]
    results = [_term_row(t) for t in runs[0]]
    if args.engine == "both":
        direct, via_bott = map(lascoux.comparison_key, runs)
        results.append({"check": "engines-agree", "match": direct == via_bott})
    return results, []


def cmd_bott(args, cache_):
    seq = tuple(int(x) for x in args.seq.split(","))
    outcome = lascoux.bott_reduce(seq)
    row = {"sequence": list(seq), "wall": outcome.wall}
    if not outcome.wall:
        row["cohomology_degree"] = outcome.degree
        row["partition"] = list(outcome.partition)
    return [row], []


def cmd_sr(args, cache_):
    if args.complex == "skeleton":
        if args.dim is None and args.kappa is None:
            raise ValueError("skeleton needs --dim or -k (dim = kappa - 2)")
        dim = args.dim if args.dim is not None else args.kappa - 2
        if args.kappa is not None and args.kappa - 2 != dim:
            raise ValueError(f"--dim {dim} disagrees with -k {args.kappa} "
                             "(dim = kappa - 2)")
        complex_ = skeleton_complex(args.n, dim)
    elif args.complex == "perm2":
        if args.dim is not None or args.kappa is not None:
            raise ValueError("perm2 takes neither --dim nor -k")
        complex_ = perm2_complex(args.n)
    else:
        raise ValueError(f"unknown complex {args.complex!r}")
    row = {
        "complex": args.complex,
        "n": args.n,
        "f_vector": list(complex_.f_vector()),
        "h_vector": list(complex_.h_vector()),
    }
    if args.dual:
        row["dual_generators"] = [list(g) for g in
                                  alexander_dual_ideal(complex_)]
    return [row], []


def cmd_verify(args, cache_):
    rows = verify.run_suite(args.suite, expensive=args.expensive,
                            seed=args.prime_seed)
    passed = sum(1 for r in rows if r["ok"])
    rows.append({
        "suite": args.suite,
        "check": "summary",
        "ok": passed == len(rows),
        "detail": f"{passed}/{len(rows)} checks passed",
    })
    return rows, []


def _exit_code(results):
    for row in results:
        if row.get("match") is False or row.get("ok") is False:
            return EXIT_MISMATCH
    return EXIT_OK


def _emit(envelope, fmt, stream):
    if fmt == "json":
        json.dump(envelope, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    rows = envelope["results"]
    if "error" in envelope:
        error = envelope["error"]
        rows = [{"error": error["type"], "message": error["message"]}]
    fieldnames = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    import csv  # only a CSV run needs it
    writer = csv.DictWriter(stream, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({
            k: json.dumps(v) if isinstance(v, (list, dict)) else v
            for k, v in row.items()
        })


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const",
                     const="json", default="json", help="JSON envelope output")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv",
                     help="CSV output, one result per row")
    shared.add_argument("--cache-dir", default=None,
                        help=f"cache directory (default ${CACHE_ENV} or "
                             "~/.cache/permres; 'none' disables)")
    shared.add_argument("--prime-seed", type=int, default=0,
                        help="seed for drawing the random 31-bit primes")
    shared.add_argument("--expensive", action="store_true",
                        help="lift resource caps for large cells")
    shared.add_argument("--cap-nonzeros", type=int, default=DEFAULT_NNZ_CAP,
                        help="per-matrix nonzero cap for oracle cells: "
                             "each ideal block, and each Koszul differential "
                             "of the side each block is computed on")

    ideal = argparse.ArgumentParser(add_help=False)
    ideal.add_argument("--family", required=True)
    ideal.add_argument("-n", type=int, required=True)
    ideal.add_argument("-k", "--kappa", type=int, required=True)
    ideal.add_argument("--mode", choices=("formula", "oracle", "both"),
                       default="both")

    parser = _Parser(prog="permres",
                     description="Hilbert functions, Betti numbers, and "
                                 "resolution data with brute-force "
                                 "verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("hilbert", parents=[shared, ideal],
                       help="Hilbert function of an ideal family")
    p.add_argument("--t", required=True, help="degree or range, e.g. 2..6")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("betti", parents=[shared, ideal],
                       help="graded Betti numbers (step 0 = generators)")
    p.add_argument("--steps", required=True, help="step or range, e.g. 0..2")
    p.add_argument("--deg", type=int, default=None,
                   help="explicit degree (default: linear strand kappa+step)")
    p.set_defaults(handler=cmd_betti)

    p = sub.add_parser("lascoux", parents=[shared],
                       help="resolution terms for the ideal of minors")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True,
                   help="minors have size r+1")
    p.add_argument("-j", type=int, required=True, help="resolution step")
    p.add_argument("--engine", choices=("direct", "bott", "both"),
                   default="direct")
    p.set_defaults(handler=cmd_lascoux)

    p = sub.add_parser("bott", parents=[shared],
                       help="dotted Weyl walk on a weight sequence")
    p.add_argument("--seq", required=True, help="comma-separated integers")
    p.set_defaults(handler=cmd_bott)

    p = sub.add_parser("sr", parents=[shared],
                       help="Stanley-Reisner complexes: f/h vectors, duals")
    p.add_argument("--complex", choices=("skeleton", "perm2"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--dim", type=int, default=None,
                   help="skeleton dimension")
    p.add_argument("-k", "--kappa", type=int, default=None,
                   help="skeleton via ideal degree (dim = kappa - 2)")
    p.add_argument("--dual", action="store_true",
                   help="include the Alexander dual ideal generators")
    p.set_defaults(handler=cmd_sr)

    p = sub.add_parser("verify", parents=[shared],
                       help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=tuple(sorted(verify.SUITES)) + ("all",))
    p.set_defaults(handler=cmd_verify)

    return parser


def _invalid(message):
    print(f"permres: invalid parameters: {message}", file=sys.stderr)
    return EXIT_INVALID


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INVALID

    started = time.perf_counter()
    try:
        cache_ = _open_cache(args)
    except OSError as exc:
        return _invalid(f"cannot open the cache directory: {exc}")
    request = {
        "command": args.command,
        "params": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "command", "format", "cache_dir",
                         "prime_seed", "expensive", "cap_nonzeros")
        },
        "format": args.format,
        "cache_dir": cache_.directory,
        "prime_seed": args.prime_seed,
        "expensive": args.expensive,
        "cap_nonzeros": args.cap_nonzeros,
    }
    error = None
    try:
        results, primes = args.handler(args, cache_)
        code = _exit_code(results)
    except tuple(_ERRORS) as exc:
        # the nearest mapped class, so subclasses of a mapped error map too
        kind, code = next(_ERRORS[cls] for cls in type(exc).__mro__
                          if cls in _ERRORS)
        error = {"type": kind, "message": str(exc)}
        results, primes = [], []
    except (ValueError, KeyError) as exc:
        return _invalid(exc)
    except OSError as exc:
        # the cache is the only file I/O a handler does
        return _invalid(f"cannot use the cache directory: {exc}")

    envelope = {
        "request": request,
        "results": results,
        "primes": primes,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    if error is not None:
        envelope["error"] = error
    _emit(envelope, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
