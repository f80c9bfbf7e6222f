"""Content-addressed JSON cache for expensive tables.

Keys combine module, operation and a canonical parameter serialization; the
payload schema is versioned and stale versions are ignored.  The cache
directory comes from configure() or the PERMAC_CACHE_DIR environment
variable; without either, caching is an in-memory no-op beyond the tables'
own memoization.
"""

from __future__ import annotations

import json
import os
import tempfile

CACHE_VERSION = 2
_cache_dir = None


def configure(path):
    """Use ``path`` as the cache directory; return the one it replaces."""
    global _cache_dir
    previous, _cache_dir = _cache_dir, path
    return previous


def cache_dir():
    if _cache_dir is not None:
        return _cache_dir
    return os.environ.get("PERMAC_CACHE_DIR")


def _path_for(module: str, operation: str, params: dict):
    base = cache_dir()
    if not base:
        return None
    import hashlib  # loads OpenSSL, so only once a cache directory is set
    canon = json.dumps({"module": module, "op": operation, "params": params},
                       sort_keys=True)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:24]
    return os.path.join(base, f"{module}.{operation}.{digest}.json")


def load(module: str, operation: str, params: dict):
    path = _path_for(module, operation, params)
    if not path:
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):  # missing or unreadable; not JSON or UTF-8
        return None
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return None
    return data


def store(module: str, operation: str, params: dict, payload: dict):
    path = _path_for(module, operation, params)
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # json.dumps runs the C encoder; json.dump writes the same text through
    # the pure-Python one
    text = json.dumps({**payload, "version": CACHE_VERSION}, sort_keys=True)
    # a private temp file per writer, so concurrent stores never interleave
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
