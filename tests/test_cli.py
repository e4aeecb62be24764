import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

from permres import __version__, cache, cli, formulas, lascoux, oracle
from permres.cache import HEADER_PREFIX, ResultCache
from permres.cli import (
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    _exit_code,
    _parse_range,
    main,
)
from permres.modular import NonUnitPivotError, PrimePair, prime_fields
from permres.tensorspace import DEFAULT_NNZ_CAP, ResourceCapError


SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_parse_range():
    assert _parse_range("3") == [3]
    assert _parse_range("2..5") == [2, 3, 4, 5]
    assert _parse_range("2:4") == [2, 3, 4]
    assert _parse_range("1,4,6") == [1, 4, 6]
    with pytest.raises(ValueError):
        _parse_range("5..2")
    # a range holds at most 2^16 values, the oracle's degree limit
    assert _parse_range("0..65535") == list(range(65536))
    assert _parse_range("7:65542")[-1] == 65542
    for text in ("0..65536", "7:65543"):
        with pytest.raises(ValueError, match="has 65537 values"):
            _parse_range(text)


def test_overlong_range_exits_before_it_is_built():
    # a list of 10^9 steps or degrees would take gigabytes: both commands
    # exit 4 at once.  The child's address space is capped, so a build of
    # the list fails there with MemoryError instead of filling the machine
    script = (
        "import resource, sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import permres.cli\n"
        "for argv in (['betti', '--steps', '0..1000000000'],\n"
        "             ['hilbert', '--t', '0..1000000000']):\n"
        "    started = time.perf_counter()\n"
        "    code = permres.cli.main(argv + ['--family', 'squarefree', '-n',\n"
        "                            '3', '-k', '1', '--cache-dir', 'none'])\n"
        "    print(code, time.perf_counter() - started)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        code, seconds = line.split()
        assert int(code) == EXIT_INVALID
        assert float(seconds) < 0.5
    assert done.stderr.count("has 1000000001 values") == 2


def test_hilbert_both_modes(capsys, tmp_path):
    code, env = run_json(
        capsys, "hilbert", "--family", "subpermanents", "-n", "3", "-k", "2",
        "--t", "2..4", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert env["version"]
    assert len(env["primes"]) == 2
    rows = env["results"]
    assert [r["t"] for r in rows] == [2, 3, 4]
    assert [r["oracle"] for r in rows] == [9, 77, 333]
    assert all(r["match"] for r in rows)
    # envelope round-trips through JSON
    assert json.loads(json.dumps(env)) == env


def test_hilbert_oracle_only_when_no_formula(capsys, tmp_path):
    code, env = run_json(
        capsys, "hilbert", "--family", "subpermanents", "-n", "1", "-k", "1",
        "--t", "3", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["oracle"] == 1
    assert row["formula"] is None
    assert "match" not in row


def test_hilbert_minors_formula_from_resolution(capsys, tmp_path):
    code, env = run_json(
        capsys, "hilbert", "--family", "minors", "-n", "3", "-k", "2",
        "--t", "2..5", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert all(r["match"] for r in env["results"])


def test_betti_squarefree_table(capsys, tmp_path):
    code, env = run_json(
        capsys, "betti", "--family", "squarefree", "-n", "5", "-k", "3",
        "--steps", "0..2", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert [r["oracle"] for r in env["results"]] == [10, 15, 6]
    assert [r["degree"] for r in env["results"]] == [3, 4, 5]


def test_hilbert_two_prime_envelope(capsys):
    code, env = run_json(
        capsys, "hilbert", "--family", "squarefree", "-n", "4", "-k", "2",
        "--t", "2..4", "--mode", "oracle", "--prime-seed", "3",
        "--cache-dir", "none",
    )
    assert code == EXIT_OK
    assert env["request"]["params"]["family"] == "squarefree"
    assert (env["request"]["params"]["n"],
            env["request"]["params"]["kappa"]) == (4, 2)
    assert {r["t"]: r["oracle"] for r in env["results"]} == \
        {2: 6, 3: 16, 4: 31}
    assert len(env["primes"]) == 2
    assert env["timing_seconds"] >= 0


@pytest.mark.parametrize("given", [[], ["--cap-nonzeros", "1000"]],
                         ids=["default", "given"])
def test_request_records_the_cap(capsys, given):
    # the request carries the cap next to `expensive`, so a capped run can
    # be reproduced from its envelope
    code, env = run_json(
        capsys, "hilbert", "--family", "squarefree", "-n", "4", "-k", "2",
        "--t", "2", *given, "--cache-dir", "none",
    )
    assert code == EXIT_OK
    want = int(given[1]) if given else DEFAULT_NNZ_CAP
    assert env["request"]["cap_nonzeros"] == want
    assert env["request"]["expensive"] is False
    assert "cap_nonzeros" not in env["request"]["params"]


def test_betti_two_prime_envelope(capsys):
    code, env = run_json(
        capsys, "betti", "--family", "squarefree", "-n", "5", "-k", "3",
        "--steps", "0..2", "--mode", "oracle", "--prime-seed", "3",
        "--cache-dir", "none",
    )
    assert code == EXIT_OK
    assert {(r["step"], r["degree"]): r["oracle"]
            for r in env["results"]} == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
    assert all("formula" not in r for r in env["results"])
    assert len(env["primes"]) == 2


def test_betti_explicit_degree(capsys, tmp_path):
    code, env = run_json(
        capsys, "betti", "--family", "subpermanents", "-n", "3", "-k", "2",
        "--steps", "1", "--deg", "4", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["degree"] == 4 and row["formula"] is None
    assert row["oracle"] == 36


def test_csv_output(capsys, tmp_path):
    code, out = run_cli(
        capsys, "betti", "--family", "squarefree", "-n", "4", "-k", "2",
        "--steps", "0..1", "--csv", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["oracle"] == "6"
    assert rows[1]["step"] == "1"


def test_lascoux_both_engines(capsys, tmp_path):
    code, env = run_json(
        capsys, "lascoux", "-n", "3", "-r", "1", "-j", "4", "--engine",
        "both", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = env["results"]
    assert rows[-1] == {"check": "engines-agree", "match": True}
    assert rows[0]["dim"] == 1 and rows[0]["lam_e"] == [2, 2, 2]


def test_lascoux_bott_engine_runs_only_bott(capsys, monkeypatch):
    via_bott = [cli._term_row(t) for t in lascoux.resolution_via_bott(3, 1, 4)]

    def refuse(*args):
        raise AssertionError("--engine bott ran the direct engine")

    monkeypatch.setattr(lascoux, "lascoux_terms", refuse)
    code, env = run_json(capsys, "lascoux", "-n", "3", "-r", "1", "-j", "4",
                         "--engine", "bott", "--cache-dir", "none")
    assert code == EXIT_OK
    assert env["results"] == via_bott


def test_lascoux_past_the_length(capsys):
    code, env = run_json(capsys, "lascoux", "-n", "3", "-r", "1", "-j", "99",
                         "--cache-dir", "none")
    assert code == EXIT_OK
    assert env["results"] == []


def test_lascoux_far_past_the_length_is_short(capsys, monkeypatch):
    # past the resolution length no split of j - s^2 fits in n rows, so the
    # direct engine walks no partitions at all, however large j is
    calls = [0]
    partitions = lascoux.partitions

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 1_000:
            raise AssertionError("lascoux_terms walked splits past the length")
        return partitions(*args, **kwargs)

    monkeypatch.setattr(lascoux, "partitions", counted)
    code, env = run_json(capsys, "lascoux", "-n", "3", "-r", "1", "-j",
                         "100000000", "--cache-dir", "none")
    assert code == EXIT_OK
    assert env["results"] == []
    assert calls[0] == 0


def test_bott_subcommand(capsys, tmp_path):
    code, env = run_json(capsys, "bott", "--seq", "0,2,1",
                         "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row == {
        "sequence": [0, 2, 1],
        "wall": False,
        "cohomology_degree": 1,
        "partition": [1, 1, 1],
    }


def test_sr_subcommand(capsys, tmp_path):
    code, env = run_json(
        capsys, "sr", "--complex", "skeleton", "-n", "4", "--dim", "1",
        "--dual", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["f_vector"] == [1, 4, 6]
    assert row["h_vector"] == [1, 2, 3]
    assert len(row["dual_generators"]) == 6
    code, env = run_json(capsys, "sr", "--complex", "perm2", "-n", "3",
                         "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    (row,) = env["results"]
    # the closed form counts faces up to dimension n, and n = 3 has none
    # of dimension 3
    assert [1, *formulas.perm2_f_vector(3)] == row["f_vector"] + [0]


def test_sr_skeleton_dim_must_match_kappa(capsys):
    # -k 3 means the 1-dimensional skeleton, so --dim 2 contradicts it
    # rather than overriding it; options that agree are accepted
    code = main(["sr", "--complex", "skeleton", "-n", "4", "--dim", "2",
                 "-k", "3", "--cache-dir", "none"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert "disagrees" in captured.err
    code, env = run_json(capsys, "sr", "--complex", "skeleton", "-n", "4",
                         "--dim", "1", "-k", "3", "--cache-dir", "none")
    assert code == EXIT_OK
    assert env["results"][0]["f_vector"] == [1, 4, 6]


@pytest.mark.parametrize("option", [("--dim", "1"), ("-k", "3")])
def test_sr_perm2_rejects_skeleton_options(capsys, option):
    # perm2 has no dimension to choose, so neither option is ignored
    code = main(["sr", "--complex", "perm2", "-n", "3", *option,
                 "--cache-dir", "none"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert "perm2" in captured.err


# every check of each suite, in order; dropping one from permres.verify
# fails test_verify_suite
VERIFY_CHECKS = {
    "formulas": [
        "perm2-hilbert-n2", "perm2-hilbert-n3", "perm2-hilbert-n4",
        "squarefree-hilbert-n2", "squarefree-hilbert-n3",
        "squarefree-hilbert-n4", "squarefree-hilbert-n5",
        "squarefree-hilbert-n6", "squarefree-betti-grid",
        "perm-linear-strand-vs-koszul", "det-strand-step2-vs-koszul",
    ],
    "syzygies": [
        "det-hw-kernel", "perm-laplace-differences", "det-laplace-products",
        "monomial-syzygy-kernel",
    ],
    "lascoux": [
        "direct-vs-bott", "length-and-symmetry", "euler-vs-rank-oracle",
        "bott-strategy-independence", "regular-weight-bridge",
    ],
    "simplicial": [
        "perm2-face-counts", "h-vector-betti-numerator", "alexander-duality",
        "stanley-reisner-hilbert",
    ],
}


def test_verify_suite(capsys):
    every = [check for checks in VERIFY_CHECKS.values() for check in checks]
    for suite, checks in (*VERIFY_CHECKS.items(), ("all", every)):
        code, env = run_json(capsys, "verify", "--suite", suite,
                             "--cache-dir", "none")
        assert code == EXIT_OK, suite
        assert [r["check"] for r in env["results"]] == checks + ["summary"]
        assert all(r["ok"] for r in env["results"]), suite


@pytest.mark.expensive
def test_verify_expensive_row(capsys):
    # the 5200 cell of the n=5, kappa=3 sub-permanents, over two primes
    code, env = run_json(capsys, "verify", "--suite", "formulas",
                         "--expensive", "--cache-dir", "none")
    assert code == EXIT_OK
    assert [r["check"] for r in env["results"]] == VERIFY_CHECKS["formulas"] \
        + ["perm-5-3-first-syzygies-degree-6", "summary"]
    assert all(r["ok"] for r in env["results"])
    assert env["results"][-2]["detail"] == "got 5200, expected 5200"


def test_invalid_parameters_exit_code(capsys, tmp_path):
    code = main(["hilbert", "--family", "nonsense", "-n", "3", "-k", "2",
                 "--t", "2", "--cache-dir", str(tmp_path)])
    assert code == EXIT_INVALID
    code = main(["hilbert", "--family", "minors", "-n", "3", "-k", "9",
                 "--t", "2", "--cache-dir", str(tmp_path)])
    assert code == EXIT_INVALID
    code = main(["nope"])
    assert code == EXIT_INVALID
    # a degree with a range of steps, a lascoux corank of n, and a skeleton
    # with neither its dimension nor kappa
    capsys.readouterr()
    for argv in (["betti", "--family", "subpermanents", "-n", "3", "-k", "2",
                  "--steps", "0..2", "--deg", "4"],
                 ["lascoux", "-n", "3", "-r", "3", "-j", "1"],
                 ["sr", "--complex", "skeleton", "-n", "4"]):
        code = main([*argv, "--cache-dir", "none"])
        assert code == EXIT_INVALID, argv
        assert capsys.readouterr().out == "", argv


def test_negative_step_rejected(capsys):
    # rejected before the formula path, which has no oracle to refuse it
    for family in ("subpermanents", "minors", "squarefree"):
        code = main(["betti", "--family", family, "-n", "3", "-k", "2",
                     "--steps=-1", "--deg", "4", "--mode", "formula",
                     "--cache-dir", "none"])
        assert code == EXIT_INVALID, family
    assert capsys.readouterr().out == ""


def test_lascoux_negative_step_rejected(capsys):
    # a negative step has no resolution term, so both engines would agree
    # on an empty list; it is an invalid parameter
    for engine in ("direct", "bott", "both"):
        code = main(["lascoux", "-n", "3", "-r", "1", "-j", "-1",
                     "--engine", engine, "--cache-dir", "none"])
        assert code == EXIT_INVALID, engine
    captured = capsys.readouterr()
    assert captured.out == "" and "step" in captured.err


def test_degree_past_packed_exponents_rejected(capsys, monkeypatch):
    # the oracle packs each exponent into a 16-bit field, so a degree of
    # 2^16 or more is invalid, and is rejected before any block is built:
    # the ideal's graded quotient is not even looked up
    def refuse(spec):
        raise AssertionError("the graded quotient was reached")

    monkeypatch.setattr(oracle, "_graded_quotient", refuse)
    ideal = ["--family", "minors", "-n", "3", "-k", "2", "--mode", "oracle",
             "--cache-dir", "none"]
    for cell in (["betti", "--steps", "1", "--deg", "65536"],
                 ["hilbert", "--t", "65536"]):
        assert main([*cell, *ideal]) == EXIT_INVALID, cell
        captured = capsys.readouterr()
        assert captured.out == "" and "65536" in captured.err, cell


def test_negative_degree_rejected(capsys):
    # rejected before any cell runs, whichever family has a closed form
    for family in ("subpermanents", "minors", "squarefree"):
        code = main(["hilbert", "--family", family, "-n", "3", "-k", "2",
                     "--t=-2..0", "--cache-dir", "none"])
        assert code == EXIT_INVALID, family
        code = main(["betti", "--family", family, "-n", "3", "-k", "2",
                     "--steps", "0", "--deg=-1", "--cache-dir", "none"])
        assert code == EXIT_INVALID, family
    assert capsys.readouterr().out == ""


def test_negative_cap_rejected(capsys):
    # a negative cap would fail every cell as a resource cap; it is an
    # invalid parameter, rejected before any cell runs, in every mode
    for command, cell in (("hilbert", "--t=2"), ("betti", "--steps=0")):
        for mode in ("formula", "oracle", "both"):
            code = main([command, "--family", "subpermanents", "-n", "3",
                         "-k", "2", cell, "--mode", mode,
                         "--cap-nonzeros=-5", "--cache-dir", "none"])
            assert code == EXIT_INVALID, (command, mode)
    assert capsys.readouterr().out == ""


def test_resource_cap_exit_code(capsys, tmp_path):
    code, env = run_json(
        capsys, "hilbert", "--family", "subpermanents", "-n", "4", "-k", "2",
        "--t", "6", "--mode", "oracle", "--cap-nonzeros", "5",
        "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_RESOURCE
    assert env["error"]["type"] == "resource-cap"
    assert env["results"] == []
    assert env["primes"] == []
    # the success envelope's keys plus `error`
    assert set(env) == {"request", "results", "primes", "timing_seconds",
                        "version", "error"}


def test_csv_error_row(capsys):
    code, out = run_cli(
        capsys, "hilbert", "--family", "subpermanents", "-n", "4", "-k", "2",
        "--t", "6", "--cap-nonzeros", "1", "--csv", "--cache-dir", "none",
    )
    assert code == EXIT_RESOURCE
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["error"] == "resource-cap"
    assert "cap 1" in row["message"]


def test_window_cap_exit_code(capsys, tmp_path):
    # the square-free window has no ideal block; its differentials are capped
    code, env = run_json(
        capsys, "betti", "--family", "squarefree", "-n", "5", "-k", "3",
        "--steps", "2", "--cap-nonzeros", "1", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_RESOURCE
    assert env["error"]["type"] == "resource-cap"
    assert env["results"] == []


def test_cache_corruption_exit_code(capsys, tmp_path, monkeypatch):
    argv = ["hilbert", "--family", "subpermanents", "-n", "3", "-k", "2",
            "--t", "3", "--mode", "oracle", "--cache-dir", str(tmp_path)]
    code, env = run_json(capsys, *argv)
    assert code == EXIT_OK and env["results"][0]["oracle"] == 77
    paths = [os.path.join(root, f) for root, _, fs in os.walk(str(tmp_path))
             for f in fs]
    assert len(paths) == 1  # one file per cell, for both primes at once
    for path in paths:
        with open(path) as fh:
            header = fh.readline()
        assert header.startswith(HEADER_PREFIX)
        with open(path, "w") as fh:
            fh.write(f"{header}78\n")
    # audit every cache hit
    monkeypatch.setattr(cache, "AUDIT_FRACTION", 1)
    code, env = run_json(capsys, *argv)
    assert code == EXIT_MISMATCH
    assert env["error"]["type"] == "cache-corruption"
    assert "78" in env["error"]["message"]
    assert env["results"] == []


def test_prime_disagreement_exit_code(capsys, tmp_path, monkeypatch):
    # a compute that meets a non-unit pivot over the pair of primes and whose
    # value depends on the prime: all three primes of the fallback disagree
    def disagreeing(spec, i, d, field_, cap):
        if isinstance(field_, PrimePair):
            raise NonUnitPivotError("planted non-unit pivot")
        return field_.modulus

    monkeypatch.setattr(cli, "betti_oracle", disagreeing)
    code, env = run_json(
        capsys, "betti", "--family", "minors", "-n", "3", "-k", "2",
        "--steps", "1", "--mode", "oracle", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_MISMATCH
    assert env["error"]["type"] == "prime-disagreement"
    assert env["results"] == []


def test_error_subclass_maps_like_its_base(capsys, tmp_path, monkeypatch):
    class WedgeCapError(ResourceCapError):
        pass

    def capped(spec, i, d, field_, cap):
        raise WedgeCapError("wedge window over cap")

    monkeypatch.setattr(cli, "betti_oracle", capped)
    code, env = run_json(
        capsys, "betti", "--family", "minors", "-n", "3", "-k", "2",
        "--steps", "1", "--mode", "oracle", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_RESOURCE
    assert env["error"] == {"type": "resource-cap",
                            "message": "wedge window over cap"}
    assert env["results"] == []


def test_internal_key_error_propagates(capsys, tmp_path, monkeypatch):
    # no code path raises KeyError on the user's behalf, so one from a
    # lookup gone wrong is a fault to surface, not invalid parameters
    def faulty(spec, i, d, field_, cap):
        raise KeyError("planted missing key")

    monkeypatch.setattr(cli, "betti_oracle", faulty)
    with pytest.raises(KeyError, match="planted missing key"):
        main(["betti", "--family", "minors", "-n", "3", "-k", "2",
              "--steps", "1", "--mode", "oracle", "--cache-dir",
              str(tmp_path)])


def test_exit_code_mismatch_mapping():
    assert _exit_code([{"match": True}, {"oracle": 3}]) == EXIT_OK
    assert _exit_code([{"match": True}, {"match": False}]) == EXIT_MISMATCH
    assert _exit_code([{"ok": False}]) == EXIT_MISMATCH


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PERMRES_CACHE_DIR", str(tmp_path / "envcache"))
    code, env = run_json(capsys, "bott", "--seq", "0,1")
    assert code == EXIT_OK
    assert env["request"]["cache_dir"].endswith("envcache")


@pytest.mark.parametrize("argv", [
    ("bott", "--seq", "0,1"),
    ("hilbert", "--family", "squarefree", "-n", "3", "-k", "2", "--t", "2"),
])
def test_unusable_cache_dir_exit_code(capsys, tmp_path, argv):
    # a regular file where a directory should be: no traceback, no envelope
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([*argv, "--cache-dir", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert "cache directory" in captured.err


def test_blocked_cache_subdirectories_exit_code(capsys, tmp_path):
    # the cache directory opens, but each two-hex-digit subdirectory a key
    # can land in is a regular file, so the first cache read fails
    for k in range(256):
        (tmp_path / f"{k:02x}").write_text("")
    code = main(["hilbert", "--family", "squarefree", "-n", "3", "-k", "2",
                 "--t", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert "cache directory" in captured.err


@pytest.mark.expensive
def test_expensive_betti_cell(capsys, tmp_path):
    code, env = run_json(
        capsys, "betti", "--family", "subpermanents", "-n", "5", "-k", "3",
        "--steps", "1", "--deg", "6", "--expensive",
        "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["oracle"] == 5200


def test_cache_reuse_and_audit(capsys, tmp_path):
    argv = ["hilbert", "--family", "squarefree", "-n", "4", "-k", "2",
            "--t", "2..5", "--cache-dir", str(tmp_path)]
    code1, env1 = run_json(capsys, *argv)
    code2, env2 = run_json(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert env1["results"] == env2["results"]
    # one file per cell, keyed by the product of the two primes and named
    # by the documented key fields
    files = {f for _, _, fs in os.walk(str(tmp_path)) for f in fs}
    key = ResultCache(None, __version__).key
    p1, p2 = env1["primes"]
    assert files == {
        key(prime=p1 * p2, kind="hilbert", family="squarefree", n=4, kappa=2,
            t=t) + ".txt"
        for t in range(2, 6)
    }


def test_fallback_per_prime_matches_one_pass(capsys, tmp_path, monkeypatch):
    # a real command whose rank kernel meets a non-unit pivot over the pair
    # of primes runs each cell over each prime alone: same results and
    # primes as the one pass, and one cache file per prime and cell.  A
    # Hilbert value ranks its blocks with the same kernel, so it falls back
    # too.  Each case is (argv, kind, the key fields of each cell)
    ideal = ["--family", "subpermanents", "-n", "3", "-k", "2",
             "--mode", "oracle"]
    cases = [
        (["betti", *ideal, "--steps", "0..2"], "betti",
         [{"step": i, "degree": 2 + i} for i in range(3)]),
        (["hilbert", *ideal, "--t", "2..4"], "hilbert",
         [{"t": t} for t in range(2, 5)]),
    ]
    one_pass = []
    for argv, _, _ in cases:
        code, env = run_json(capsys, *argv, "--cache-dir", "none")
        assert code == EXIT_OK
        one_pass.append(env)
    rank = oracle.rank_of_rows
    pair = PrimePair(*prime_fields(0, 2))
    raised = []

    def non_unit_at_pair(rows, p, **kwargs):
        if p == pair.modulus:
            raised.append(p)
            raise NonUnitPivotError("planted non-unit pivot")
        return rank(rows, p, **kwargs)

    monkeypatch.setattr(oracle, "rank_of_rows", non_unit_at_pair)
    key = ResultCache(None, __version__).key
    for (argv, kind, cells), want in zip(cases, one_pass):
        oracle._graded_quotient.cache_clear()
        raised.clear()
        directory = tmp_path / kind
        code, fallback = run_json(capsys, *argv, "--cache-dir", str(directory))
        assert code == EXIT_OK
        assert len(raised) == len(cells)  # each cell tried the pair first
        assert fallback["results"] == want["results"]
        assert fallback["primes"] == want["primes"] == \
            [pair.first.modulus, pair.second.modulus]
        files = {f for _, _, fs in os.walk(str(directory)) for f in fs}
        assert files == {
            key(prime=p, kind=kind, family="subpermanents", n=3, kappa=2,
                **cell) + ".txt"
            for p in want["primes"] for cell in cells
        }


# modules a JSON CLI call has no use for: numpy is a test dependency only,
# the records are named tuples (no dataclasses, and so no inspect), and
# logging and csv are imported by the branches that log or write CSV
UNUSED_BY_CLI = ("numpy", "dataclasses", "inspect", "logging", "csv")


def run_fresh(*argv):
    """(exit code, envelope, which of `UNUSED_BY_CLI` were loaded, peak RSS
    in MB) of a CLI call in a fresh interpreter with `src` on the path."""
    script = (
        "import contextlib, io, json, resource, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import permres.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = permres.cli.main({list(argv)!r})\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        f"loaded = [m for m in {UNUSED_BY_CLI!r} if m in sys.modules]\n"
        "print(json.dumps([code, json.loads(out.getvalue()), loaded, peak]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_runs_without_numpy():
    # numpy is a test dependency only: a fresh interpreter imports the CLI
    # and computes a betti row without loading it
    code, env, loaded, _ = run_fresh(
        "betti", "--family", "subpermanents", "-n", "3", "-k", "2",
        "--steps", "0..1", "--cache-dir", "none")
    assert code == EXIT_OK and env["results"]
    assert "numpy" not in loaded
    # nor any other module it has no use for: every CLI process pays for its
    # imports before its first cell
    assert loaded == []


def test_betti_past_the_exterior_algebra(capsys):
    # Lambda^(i+1) of the 3 variables is 0 for step i = 2000, so the value
    # is 0 at once, without walking the weights of degree 2002
    started = time.perf_counter()
    code, env = run_json(
        capsys, "betti", "--family", "squarefree", "-n", "3", "-k", "2",
        "--steps", "2000", "--cache-dir", "none")
    assert time.perf_counter() - started < 1
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["oracle"] == 0 and row["match"] is True


def test_squarefree_betti_far_above_n(capsys):
    # a square-free monomial ideal has Betti numbers only in square-free
    # multidegrees, so degree 3000 in 3 variables is 0 at once, without
    # walking its weights
    started = time.perf_counter()
    code, env = run_json(
        capsys, "betti", "--family", "squarefree", "-n", "3", "-k", "2",
        "--steps", "1", "--deg", "3000", "--cache-dir", "none")
    assert time.perf_counter() - started < 1
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["oracle"] == 0 and row["match"] is True


@pytest.mark.expensive
def test_expensive_betti_cell_n6():
    # a linear-strand cell of the 2x2 minors of a 6x6 matrix over two primes:
    # its windows reach 6-subsets of the 36 variables, and only the wedges
    # under its blocks' weights are listed, so the whole process stays small
    code, env, _, peak_mb = run_fresh(
        "betti", "--family", "minors", "-n", "6", "-k", "2", "--steps", "4",
        "--expensive", "--mode", "both", "--cache-dir", "none")
    assert code == EXIT_OK
    (row,) = env["results"]
    assert row["oracle"] == row["formula"] == 139300
    assert peak_mb < 150, peak_mb
