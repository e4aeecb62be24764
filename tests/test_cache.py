import os
import random
from types import SimpleNamespace

import pytest

from permres.cache import HEADER_PREFIX, CacheCorruptionError, ResultCache


def _cache(tmp_path, audit=False):
    # every draw is 0.0, below any audit fraction, or 1.0, above all of them
    draw = 0.0 if audit else 1.0
    return ResultCache(str(tmp_path / "cache"), "0.test",
                       rng=SimpleNamespace(random=lambda: draw))


def test_keys_depend_on_all_fields(tmp_path):
    c = _cache(tmp_path)
    k1 = c.key(kind="hilbert", n=3, t=2, prime=101)
    assert k1 == c.key(prime=101, t=2, n=3, kind="hilbert")
    assert k1 != c.key(kind="hilbert", n=3, t=3, prime=101)
    assert k1 != c.key(kind="hilbert", n=3, t=2, prime=103)


def test_round_trip(tmp_path):
    c = _cache(tmp_path)
    key = c.key(kind="x", cell=1)
    assert c.get(key) is None
    c.put(key, 12345)
    assert c.get(key) == 12345


def test_get_or_compute_counts(tmp_path):
    c = _cache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return 99

    assert c.get_or_compute(compute, kind="x", cell=7) == 99
    assert c.get_or_compute(compute, kind="x", cell=7) == 99
    assert len(calls) == 1
    assert c.misses == 1 and c.hits == 1


def test_disabled_cache_always_computes():
    c = ResultCache(None, "0.test")
    calls = []
    for _ in range(3):
        c.get_or_compute(lambda: calls.append(1) or 5, kind="x")
    assert len(calls) == 3


def test_audit_detects_corruption(tmp_path):
    c = _cache(tmp_path, audit=True)
    key = c.key(kind="x", cell=1)
    c.put(key, 42)
    # fresh value disagrees with the stored one
    with pytest.raises(CacheCorruptionError):
        c.get_or_compute(lambda: 43, kind="x", cell=1)
    assert c.audits == 1


def test_audit_passes_when_consistent(tmp_path):
    c = _cache(tmp_path, audit=True)
    assert c.get_or_compute(lambda: 42, kind="x", cell=1) == 42
    assert c.get_or_compute(lambda: 42, kind="x", cell=1) == 42
    assert c.audits == 1


def test_malformed_files_ignored(tmp_path, caplog):
    c = _cache(tmp_path)
    key = c.key(kind="x", cell=1)
    c.put(key, 7)
    path = os.path.join(c.directory, key[:2], key + ".txt")
    with open(path, "w") as fh:
        fh.write("garbage\n")
    with caplog.at_level("WARNING", logger="permres.cache"):
        assert c.get(key) is None
        with open(path, "w") as fh:
            fh.write(HEADER_PREFIX + "\nnot a number\n")
        assert c.get(key) is None
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("permres.cache", f"ignoring malformed cache file {path}"),
        ("permres.cache", f"ignoring unreadable cache payload {path}"),
    ]


def test_version_isolation(tmp_path):
    old = ResultCache(str(tmp_path / "c"), "0.1", rng=random.Random(0))
    new = ResultCache(str(tmp_path / "c"), "0.2", rng=random.Random(0))
    old.put(old.key(kind="x"), 1)
    assert new.get(new.key(kind="x")) is None
