"""The three fixed batches of `permres` CLI invocations.

Each invocation is a tuple of CLI arguments without `--cache-dir` and
`--prime-seed`, which the child adds.  The batches are fixed; the workload
seed only chooses the primes (and, through them, the cache audit draws).
"""

import hashlib
import json

SUBPERM = "subpermanents"
MINORS = "minors"
SQFREE = "squarefree"


def _betti(family, n, kappa, steps, deg=None, expensive=False):
    argv = ["betti", "--family", family, "-n", str(n), "-k", str(kappa),
            "--steps", steps]
    if deg is not None:
        argv += ["--deg", str(deg)]
    if expensive:
        argv.append("--expensive")
    return tuple(argv)


def _hilbert(family, n, kappa, lo, hi):
    return ("hilbert", "--family", family, "-n", str(n), "-k", str(kappa),
            "--t", f"{lo}..{hi}")


def syzygy_5x5():
    """The paper's headline cells: first syzygies of the 100 cubic
    sub-permanents of a 5x5 matrix in degrees 5 (value 0) and 6 (5200)."""
    return [_betti(SUBPERM, 5, 3, "1", deg=d, expensive=True) for d in (5, 6)]


def tables_4x4():
    """Linear strand, one off-strand degree per step, and the Hilbert
    function, for both matrix families with n=4, kappa=2."""
    out = []
    for family in (SUBPERM, MINORS):
        out.append(_betti(family, 4, 2, "0..3"))
        out.extend(_betti(family, 4, 2, str(i), deg=3 + i) for i in range(4))
        out.append(_hilbert(family, 4, 2, 2, 7))
    return out


def sweep_small():
    """About 160 tiny invocations covering every subcommand that does work."""
    out = []
    for n in range(3, 9):
        for k in range(1, n + 1):
            out.append(_betti(SQFREE, n, k, f"0..{n - k}"))
            out.append(_hilbert(SQFREE, n, k, k, k + 3))
    for family in (SUBPERM, MINORS):
        for n, k in ((2, 2), (3, 2), (3, 3)):
            out.append(_betti(family, n, k, "0..2"))
            out.append(_hilbert(family, n, k, k, k + 4))
        for k in (2, 3, 4):
            out.append(_hilbert(family, 4, k, k, k + 3))
    for n in range(2, 6):
        for r in range(1, n):
            for j in range(1, (n - r) ** 2 + 1):
                out.append(("lascoux", "-n", str(n), "-r", str(r), "-j",
                            str(j), "--engine", "both"))
    for n in range(2, 8):
        for k in range(2, n + 1):
            out.append(("sr", "--complex", "skeleton", "-n", str(n), "-k",
                        str(k), "--dual"))
    for n in range(2, 6):
        out.append(("sr", "--complex", "perm2", "-n", str(n)))
    out.append(("verify", "--suite", "all"))
    return out


WORKLOADS = {
    "syzygy-5x5": syzygy_5x5,
    "tables-4x4": tables_4x4,
    "sweep-small": sweep_small,
}

# Subcommands whose rows are oracle cells served through the result cache;
# every batch replays its invocations of these against the warm cache.
CACHED_COMMANDS = ("betti", "hilbert")


def expected_entry(argv, results):
    """What expected.json stores for one invocation: every row of an oracle
    command, and a digest of the rows of any other command."""
    if argv[0] in CACHED_COMMANDS:
        return {"argv": list(argv), "rows": results}
    return {"argv": list(argv), "sha256": results_digest(results)}


def results_digest(results):
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
