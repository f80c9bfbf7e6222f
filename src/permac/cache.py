"""Content-addressed JSON cache for expensive tables.

A file is named by module, operation and a 64-bit checksum (CRC-32 and
Adler-32 from zlib) of the canonical JSON key.  The checksum only picks the
file: store() writes the params into the payload, and load() treats a file
whose stored params differ from the requested ones as a miss, so a checksum
collision, a renamed or a copied file is never served.  Param values are
JSON strings and integers, which read back equal.  The payload schema is
versioned and stale versions are ignored, as are files from before the
checksum names.  The cache directory comes from configure() or the
PERMAC_CACHE_DIR environment variable; without either, caching is an
in-memory no-op beyond the tables' own memoization.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib

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
    canon = json.dumps({"module": module, "op": operation, "params": params},
                       sort_keys=True).encode()
    digest = f"{zlib.crc32(canon):08x}{zlib.adler32(canon):08x}"
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
    if any(data.get(k) != v for k, v in params.items()):
        return None  # another key's payload under this name
    return data


def store(module: str, operation: str, params: dict, payload: dict):
    path = _path_for(module, operation, params)
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # json.dumps runs the C encoder; json.dump writes the same text through
    # the pure-Python one
    text = json.dumps({**payload, **params, "version": CACHE_VERSION}, sort_keys=True)
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
