"""Benchmark of the `permres` CLI over three fixed batches of two-prime
verified cells.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/permres`.  Children
(`child.py`) run one at a time, each a fresh interpreter.  Every batch's
cold pass gets its own child and a new empty cache directory under
`.perfbench_tmp/`; nothing outside the checkout is read or written.  The
seed sets `--prime-seed` of every invocation.

With `--trace 0` the run repeats rounds of `SETUP_PROBES` set-up probe
children and one cold-pass child while at least half of the next round is
expected to fit in S seconds (at least one round), and reports the medians
of the end-to-end metrics.  With `--trace 1` it runs one untraced cold
pass followed by a warm replay, then one traced batch, and reports the
per-layer metrics that `BENCHMARK.json` lists.  Every output is checked
against `expected.json`; the last line of stdout is one JSON object, and the
exit code is 0 only if every invocation was right.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join(ROOT, ".perfbench_tmp")

sys.path.insert(0, HERE)
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up probes per round; spreading them over the run makes setup_s a
# median over the same minutes as the batches.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170

_clock = time.perf_counter


class ChildError(RuntimeError):
    pass


def child_env(cache_dir, work):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "PERMRES"))}
    env.update({
        "PERMRES_CACHE_DIR": cache_dir,
        "HOME": work,
        "TMPDIR": work,
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(mode, workload, seed, cache_dir, work):
    """Run one child; returns (set-up seconds, report or None)."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    argv = [sys.executable, CHILD, mode, workload, str(seed), cache_dir, out,
            EXPECTED]
    started = _clock()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(cache_dir, work))
    try:
        ready = proc.stdout.readline()
        setup = _clock() - started
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise ChildError(f"{mode} child for {workload} exited "
                         f"{proc.returncode}")
    with open(out) as fh:
        report = json.load(fh) if mode != "probe" else None
    os.unlink(out)
    return setup, report


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, work):
    deadline = _clock() + seconds
    spawn("probe", workload, seed, work, work)  # fills __pycache__
    setups, batches = [], []
    while True:
        began = _clock()
        setups += [spawn("probe", workload, seed, work, work)[0]
                   for _ in range(SETUP_PROBES)]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
        setup, batch = spawn("plain", workload, seed, cache_dir, work)
        shutil.rmtree(cache_dir)
        setups.append(setup)
        batches.append(batch)
        # Start another round if half of it fits, so that batches of half
        # the run length still give two per run.
        if _clock() + (_clock() - began) / 2 > deadline:
            break
    median = statistics.median
    metrics = {
        "wall_s": metric(median(b["cold_wall_s"] for b in batches), "s"),
        "call_s.max": metric(median(max(b["call_s"]) for b in batches), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(median(b["maxrss_kb"] for b in batches) / 1024,
                              "MB"),
    }
    return batches, metrics


def layer_value(name, values, wall):
    """One per-layer metric from the values of the children.

    A name the children report is taken as it is.  `<key>.share` and
    `<key>.self_share` are `<key>.s` and `<key>.self_s` divided by the traced
    wall time; shares stand in for seconds where some workload never reaches
    the layer, so that no reported time reads 0 on every run.  A key that
    was never recorded reads 0 if it belongs to a known layer.
    """
    key, scale = name, 1
    if name not in values:
        for share, seconds in ((".self_share", ".self_s"), (".share", ".s")):
            if name.endswith(share):
                key, scale = name[:-len(share)] + seconds, 1 / wall
                break
    if key in values:
        return values[key] * scale
    layer = key[len("replay."):] if key.startswith("replay.") else key
    if layer.rsplit(".", 1)[0] not in LAYERS:
        raise KeyError(f"per-layer metric {name} reads unknown {key}")
    return 0  # a layer this workload never reached


def per_layer(workload, seed, work):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["per_layer"]
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
    _, untraced = spawn("replay", workload, seed, cache_dir, work)
    shutil.rmtree(cache_dir)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
    _, traced = spawn("trace", workload, seed, cache_dir, work)
    shutil.rmtree(cache_dir)
    values = traced["trace"]
    wall = traced["cold_wall_s"] + traced["replay_wall_s"]
    values.update({
        "requery_s": untraced["requery_s"],
        "trace.wall_s": wall,
        "replay.s": traced["replay_wall_s"],
        "trace.overhead_share":
            traced["cold_wall_s"] / untraced["cold_wall_s"] - 1,
        "process.cpu_s": untraced["cpu_s"],
    })
    replay = {k: v for k, v in values.items()
              if k.startswith("replay.") and k.endswith(".self_s")}
    values["replay.cli.self_share"] = replay["replay.cli.self_s"] / \
        traced["replay_wall_s"]
    values["replay.other.max_self_share"] = max(
        v for k, v in replay.items() if k != "replay.cli.self_s") / \
        traced["replay_wall_s"]
    metrics = {m["name"]: metric(layer_value(m["name"], values, wall),
                                 m["unit"]) for m in specs}
    return [untraced, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "permres", "cli.py")):
        print(f"perfbench: no src/permres under {ROOT}; run from the root "
              "of a permres checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.trace:
            batches, metrics = per_layer(args.workload, args.seed, work)
        else:
            batches, metrics = end_to_end(args.workload, args.seed,
                                          args.seconds, work)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(b["failed"] for b in batches)
    for b in batches:
        for line in b["failures"]:
            print(f"perfbench: wrong: {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
