"""Persistent result cache: one plain-text file per computed cell, keyed by
a digest of the cell's parameters (the modulus included), written by atomic
rename so concurrent writers are safe.  A fixed fraction (`AUDIT_FRACTION`) of
cache hits is audited by recomputing the value; a mismatch means the cache
or the arithmetic is broken and raises."""

import hashlib
import os
import random
import tempfile

HEADER_PREFIX = "# permres-cache "

# Share of cache hits that are recomputed and compared with the stored value.
AUDIT_FRACTION = 0.05


def _warn(message, *args):
    # only an ignored cache file logs, so only it loads logging
    import logging
    logging.getLogger(__name__).warning(message, *args)


class CacheCorruptionError(RuntimeError):
    """A cached value disagreed with a fresh recomputation."""


class ResultCache:
    def __init__(self, directory, version, rng=None):
        self.directory = directory
        self.version = version
        self.rng = rng if rng is not None else random.Random()
        self.hits = 0
        self.misses = 0
        self.audits = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def key(self, **fields):
        """Collision-resistant digest of the cell parameters."""
        canonical = ";".join(
            f"{k}={fields[k]}" for k in sorted(fields)
        )
        canonical = f"v={self.version};{canonical}"
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, key[:2], key + ".txt")

    def get(self, key):
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            with open(path) as fh:
                header = fh.readline()
                if not header.startswith(HEADER_PREFIX):
                    _warn("ignoring malformed cache file %s", path)
                    return None
                return int(fh.readline())
        except FileNotFoundError:
            return None
        except ValueError:
            _warn("ignoring unreadable cache payload %s", path)
            return None

    def put(self, key, value):
        if self.directory is None:
            return
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{HEADER_PREFIX}{self.version}\n{int(value)}\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def get_or_compute(self, compute, **fields):
        """Cached value for the cell, computing and storing on a miss.  On a
        hit, an `AUDIT_FRACTION` sample is recomputed and compared."""
        key = self.key(**fields)
        cached = self.get(key)
        if cached is not None:
            self.hits += 1
            if self.rng.random() < AUDIT_FRACTION:
                self.audits += 1
                fresh = compute()
                if fresh != cached:
                    raise CacheCorruptionError(
                        f"cache {key[:12]}... holds {cached}, fresh value "
                        f"{fresh} for {fields}"
                    )
            return cached
        self.misses += 1
        value = compute()
        self.put(key, value)
        return value
