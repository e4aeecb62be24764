"""One child interpreter of the benchmark.

Usage: child.py MODE WORKLOAD SEED CACHE_DIR OUT_JSON EXPECTED_JSON

The child imports `permres.cli` from the checkout's `src/` and prints
`ready`; the parent times set-up up to that line.  Then, by MODE:

- `probe`: exits.
- `plain`: runs the workload's invocations through `permres.cli.main(argv)`
  with stdout captured, against the empty cache in CACHE_DIR (the cold pass).
- `replay`: the cold pass, then one untraced warm replay of the cached
  (betti/hilbert) invocations against the cache it filled.
- `trace`: wraps the package's layers, then runs the cold pass and the warm
  replay.

Every result is checked against the stored expected values; the report goes
to OUT_JSON.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import permres.cli  # noqa: E402  (set-up ends once this import is done)

if not os.path.abspath(permres.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"permres was imported from {permres.cli.__file__}, "
             f"not from {SRC}")
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from tracer import ROOT, AuditClock, Tracer  # noqa: E402
from workloads import CACHED_COMMANDS, WORKLOADS, results_digest  # noqa: E402

_clock = time.perf_counter

# Largest acceptable gap between the traced wall time of a phase and the sum
# of every layer's self time in it; the gap is the benchmark's loop between
# invocations, so anything larger means the tracer lost or double-counted.
SELF_SUM_MARGIN = 0.02


def problems(rc, error, text, expected):
    """Why one invocation's output is wrong, or [] when it is right."""
    if error is not None:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    results = envelope.get("results")
    if "error" in envelope or not isinstance(results, list):
        return [f"error envelope {envelope.get('error')}"]
    out = []
    if any(row.get("match") is False or row.get("ok") is False
           for row in results):
        out.append("a row reports match/ok false")
    if "rows" in expected:
        if results != expected["rows"]:
            out.append(f"rows {results} != expected {expected['rows']}")
    elif results_digest(results) != expected["sha256"]:
        out.append("results differ from the expected digest")
    return out


def run_one(argv, seed, cache_dir, tracer):
    """One CLI invocation, stdout captured: (argv, rc, error, stdout, s)."""
    full = list(argv) + ["--cache-dir", cache_dir, "--prime-seed", str(seed)]
    buf = io.StringIO()
    rc, error = None, None
    started = _clock()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = permres.cli.main(full)
            else:
                rc = tracer.span(ROOT, permres.cli.main, full)
    except Exception as exc:  # counted as a failed invocation
        error = repr(exc)
    return argv, rc, error, buf.getvalue(), _clock() - started


def run_phase(invocations, seed, cache_dir, tracer):
    """Run invocations in order; returns (wall seconds, records)."""
    started = _clock()
    records = [run_one(a, seed, cache_dir, tracer) for a in invocations]
    return _clock() - started, records


def check_self_sum(phase, wall, self_before, self_after):
    covered = sum(self_after[k] - self_before.get(k, 0.0) for k in self_after)
    if abs(wall - covered) > SELF_SUM_MARGIN * wall:
        raise RuntimeError(
            f"{phase}: layer self times sum to {covered:.4f} s but the "
            f"traced wall time is {wall:.4f} s")


def main(argv):
    mode, workload, seed, cache_dir, out_path, expected_path = argv
    if mode == "probe":
        return 0
    with open(expected_path) as fh:
        expected = json.load(fh)[workload]
    invocations = WORKLOADS[workload]()
    if [e["argv"] for e in expected] != [list(a) for a in invocations]:
        raise SystemExit(f"{expected_path} does not list the invocations "
                         f"of {workload}")
    replay = [i for i, a in enumerate(invocations) if a[0] in CACHED_COMMANDS]
    replay_argv = [invocations[i] for i in replay]
    replay_expected = [expected[i] for i in replay]

    # The cold pass of an untraced child runs with nothing wrapped.  The
    # audit clock times the recomputation of audited cache hits, which the
    # seed chooses, so that requery_s can leave it out.
    audit = AuditClock(permres.cli.ResultCache) if mode == "trace" else None
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    cold_wall, cold = run_phase(invocations, seed, cache_dir, tracer)
    checks = list(zip(cold, expected))
    report = {"cold_wall_s": cold_wall, "call_s": [r[4] for r in cold]}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["maxrss_kb"] = usage.ru_maxrss
    report["cpu_s"] = usage.ru_utime + usage.ru_stime

    if mode == "replay":
        audit = AuditClock(permres.cli.ResultCache)
    if audit is not None:
        self_cold = dict(tracer.self_s) if tracer else {}
        audit_before = audit.seconds
        replay_wall, warm = run_phase(replay_argv, seed, cache_dir, tracer)
        checks += zip(warm, replay_expected)
        report["replay_wall_s"] = replay_wall
        report["requery_s"] = replay_wall - (audit.seconds - audit_before)
    if tracer:
        self_end = dict(tracer.self_s)
        check_self_sum("cold pass", cold_wall, {}, self_cold)
        check_self_sum("replay", replay_wall, self_cold, self_end)
        report["trace"] = tracer.values()
        report["trace"]["cache.audit.s"] = audit.seconds
        report["trace"].update(
            (f"replay.{k}.self_s", v - self_cold.get(k, 0.0))
            for k, v in self_end.items())

    failed, failures = 0, []
    for (args, rc, error, text, _), exp in checks:
        wrong = problems(rc, error, text, exp)
        failed += bool(wrong)
        failures += [f"{' '.join(args)}: {why}" for why in wrong]
    report.update(attempted=len(checks), failed=failed,
                  failures=failures[:20])
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
