import ast
import json
import os
from fractions import Fraction

import pytest

from permac import cache, macdonald
from permac.scalars import format_rational, parse_rational

Q, T = Fraction(5, 17), Fraction(4, 19)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "permac")


@pytest.fixture
def cold(tmp_path, monkeypatch, fresh_memos):
    """A fresh disk cache and empty in-memory memos."""
    monkeypatch.setattr(cache, "_cache_dir", str(tmp_path))
    return tmp_path


def table_path(q, t, n):
    return cache._path_for("macdonald", "pq-table", {
        "q": format_rational(q), "t": format_rational(t), "weight": n})


def reload(fresh_memos, q, t, n):
    """Read the table through the disk cache with the in-memory memos emptied."""
    fresh_memos()
    return macdonald.macdonald_table(q, t, n)


def without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def with_P(edit):
    return lambda data: {**data, "P": edit(data["P"])}


def set_coefficient(text):
    return with_P(lambda P: {**P, "2,1": {**P["2,1"], "2,1": text}})


def as_version_1(data):
    """The same table in the version-1 format, which also stored Q = P / norm."""
    norm = {k: parse_rational(v) for k, v in data["norm"].items()}
    Q = {k: {m: format_rational(parse_rational(c) / norm[k]) for m, c in row.items()}
         for k, row in data["P"].items()}
    return {**data, "Q": Q, "version": 1}


@pytest.mark.parametrize("damage", [
    without("P"), without("norm"),
    as_version_1,
    lambda data: {**data, "P": ["not", "a", "map"]},
    lambda data: [data],
    with_P(lambda P: {k: v for k, v in P.items() if k != "2,1"}),
    with_P(lambda P: {**P, "4": {"4": "1"}}),
    with_P(lambda P: {("1,2" if k == "2,1" else k): v for k, v in P.items()}),
    set_coefficient("1/0"), set_coefficient("x"), set_coefficient("1.5"),
    lambda data: {**data, "norm": {**data["norm"], "2,1": "0"}},
    lambda data: b'\xff\xfe{"bad',
], ids=["no-P", "no-norm", "version-1-with-Q", "P-not-a-map", "not-an-object",
        "missing-row", "foreign-weight-key", "non-partition-key",
        "zero-denominator", "not-a-number", "decimal", "zero-norm", "not-utf-8"])
def test_malformed_payload_is_rebuilt(cold, fresh_memos, damage):
    expect = macdonald.macdonald_table(Q, T, 3)
    path = table_path(Q, T, 3)
    with open(path) as fh:
        data = json.load(fh)
    damaged = damage(data)
    with open(path, "wb") as fh:
        fh.write(damaged if isinstance(damaged, bytes) else json.dumps(damaged).encode())
    assert reload(fresh_memos, Q, T, 3) == expect
    # Q is derived from the P row and norm read back
    assert macdonald.macdonald_Q((2, 1), Q, T) == {
        mu: c / expect["norm"][(2, 1)] for mu, c in expect["P"][(2, 1)].items()}
    with open(path) as fh:
        assert json.load(fh) == data


@pytest.mark.parametrize("other", [(Fraction(2, 9), T, 3), (Q, Fraction(3, 7), 3),
                                   (Q, T, 2)], ids=["q", "t", "weight"])
def test_payload_of_another_table_is_rebuilt(cold, fresh_memos, other):
    expect = macdonald.macdonald_table(Q, T, 3)
    macdonald.macdonald_table(*other)
    path = table_path(Q, T, 3)
    with open(table_path(*other)) as fh:
        foreign = fh.read()
    with open(path, "w") as fh:
        fh.write(foreign)
    assert reload(fresh_memos, Q, T, 3) == expect
    with open(path) as fh:
        data = json.load(fh)
    assert (data["q"], data["t"], data["weight"]) == (
        format_rational(Q), format_rational(T), 3)


def test_store_writes_through_a_private_temp_file(cold, fresh_memos):
    name = os.path.basename(table_path(Q, T, 2))
    # a stale or foreign "<path>.tmp" must not block or clobber the store
    (cold / (name + ".tmp")).mkdir()
    table = macdonald.macdonald_table(Q, T, 2)
    assert reload(fresh_memos, Q, T, 2) == table
    assert sorted(p.name for p in cold.iterdir()) == [name, name + ".tmp"]


def test_stored_table_bytes_match_golden(cold):
    # the disk format: weight 6 at (1/3, 2/7) as cache.store writes it,
    # P and norm only, version 2
    q, t = Fraction(1, 3), Fraction(2, 7)
    macdonald.macdonald_table(q, t, 6)
    with open(table_path(q, t, 6), "rb") as fh:
        stored = fh.read()
    with open(os.path.join(GOLDEN, "pq-table-w6-q1_3-t2_7.json"), "rb") as fh:
        assert stored == fh.read()


def test_golden_table_file_name_is_pinned(cold):
    # the name is the key's checksum; changing how keys are derived orphans
    # every stored file, so it must be a deliberate change
    name = os.path.basename(table_path(Fraction(1, 3), Fraction(2, 7), 6))
    assert name == "macdonald.pq-table.9a881ab9c0621955.json"


def test_load_returns_what_store_wrote_with_its_params(cold):
    params = {"n": 3, "label": "a"}
    cache.store("demo", "op", params, {"rows": [1, 2]})
    assert cache.load("demo", "op", params) == {
        "rows": [1, 2], "n": 3, "label": "a", "version": cache.CACHE_VERSION}


@pytest.mark.parametrize("stored", [{"n": 4, "label": "a"}, {"n": 3, "label": "b"},
                                    {"n": "3", "label": "a"}, {"label": "a"}],
                         ids=["int", "text", "type", "missing"])
def test_load_misses_a_payload_for_other_params(cold, stored):
    # a collision, a renamed or a copied file sits under the requested name
    # with another key's params; the checksum alone must not serve it
    params = {"n": 3, "label": "a"}
    cache.store("demo", "op", params, {"rows": [1, 2]})
    path = cache._path_for("demo", "op", params)
    with open(path) as fh:
        data = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**{k: v for k, v in data.items() if k not in params}, **stored}, fh)
    assert cache.load("demo", "op", params) is None


def test_package_imports_no_openssl():
    # hashlib and ssl map OpenSSL into every process that imports them, even
    # inside a function; the cache's checksums come from zlib
    banned = {"hashlib", "_hashlib", "ssl"}
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(name, node.lineno, m) for m in modules
                      if m.split(".")[0] in banned]
    assert found == []


def test_table_without_cache_dir_builds_no_disk_payload(monkeypatch, fresh_memos):
    monkeypatch.setattr(cache, "_cache_dir", None)
    monkeypatch.delenv("PERMAC_CACHE_DIR", raising=False)

    def refuse(*args):
        raise AssertionError("disk payload formatted with no cache directory")

    monkeypatch.setattr(macdonald, "_table_to_disk", refuse)
    table = macdonald.macdonald_table(Q, T, 5)
    assert len(table["P"]) == len(table["norm"]) == 7
