"""Every function of ``permac`` runs under the CLI traffic, or is named here.

A fresh interpreter (memos filled by earlier tests would hide calls) wraps
every function and method defined in a ``permac`` module with a recorder:
module attributes, class attributes, module-level lists such as
``acceptance.CRITERIA`` and the closure cells of those functions, so a
function captured by another at import is seen too.  It then runs
``permac --out F verify all``, the README's CLI examples and ``plancherel
check --samples 2000`` through ``cli.main``.  The functions that never ran
must be exactly ``UNREACHED``, each with the reason it stays, where a class
none of whose methods ran is named once: new dead code fails the test, and
so does a listed function that starts to run.

Run this file as a script (``PYTHONPATH=src python tests/test_reach.py``) to
print the traffic's exit codes, the ``verify all`` report and the unreached
names as JSON; the test passes the README examples as one JSON argument.
The report's text must equal ``tests/golden/verify-all.json`` byte for
byte; ``PYTHONPATH=src python -m permac --out tests/golden/verify-all.json
verify all`` rewrites that file.
"""

import functools
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN_VERIFY = os.path.join(ROOT, "tests", "golden", "verify-all.json")

CONFIG = "run only under --config, or for a missing required flag"
WARM_CACHE = "reads a table from a warm disk cache"
BENCHMARK = "perfbench's workloads and spans call it"
QRHO = "the Q[rho] scalars, which no computed value uses (ROADMAP items 5, 10)"
ITEM_2 = "multi-time Plancherel moments (ROADMAP item 2)"
ITEM_3 = "shift-mixed processes beyond one step (ROADMAP item 3)"
ITEM_4 = "shift-mixed Schur-limit correlations (ROADMAP item 4)"
ACCESSOR = "an accessor that tests read"
DEBUGGING = "a repr, for debugging and failure messages"
FRACTION_ROWS = "the Fraction m -> p rows, read by tests and wrapped by perfbench's spans"
IMPORT = "a decorator, run only at import, before the recorders are installed"
ONE_PAIR = "the one-pair vertex sum: tests read it and perfbench's spans wrap it"

UNREACHED = {
    "cli._leaf_options": CONFIG,
    "macdonald._table_from_disk": WARM_CACHE,
    "point.per_point": IMPORT,
    "plancherel.truncated_trace_float": BENCHMARK,
    "cylindric.vertex_skew_sum": ONE_PAIR,
    "macdonald.p_dict_to_m": BENCHMARK,
    "macdonald.m_to_p": FRACTION_ROWS,
    "series.TruncSeries.log": BENCHMARK,
    "scalars.QRho": QRHO,
    "plancherel.transfer_cycle_weight": ITEM_2,
    "process.time_grid_process": ITEM_2,
    "process.shift_mixed_partition_function": ITEM_3,
    "fock.fermion_apply": ITEM_4,
    "fock.two_point_fermion_trace": ITEM_4,
    "fock.theta3_ratio_laurent": ITEM_4,
    "series.TruncSeries.coeff": ACCESSOR,
    "series.TruncSeries.from_json": ACCESSOR,
    "series.TruncSeries.__rsub__": ACCESSOR,
    "cylindric.CylindricProfile.__repr__": DEBUGGING,
    "laurent.LaurentPoly.__repr__": DEBUGGING,
    "macdonald.Specialization.__repr__": DEBUGGING,
    "series.SeriesRing.__repr__": DEBUGGING,
    "series.TruncSeries.__repr__": DEBUGGING,
}


def _plain(raw):
    """The function behind a class attribute, or ``raw`` itself."""
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def install(reached: set) -> set:
    """Wrap every function and method defined in a permac module.

    Every reference held by a permac module, class, module-level list or
    closure cell is rebound to a wrapper.  The first call of a wrapper adds
    its name (``module.function`` or ``module.Class.method``) to ``reached``
    and puts the original back, so reached code runs unwrapped from then on.
    Returns the set of wrapped names.
    """
    import permac

    modules = [importlib.import_module(f"permac.{info.name}")
               for info in pkgutil.iter_modules(permac.__path__)
               if info.name != "__main__"]
    owners = []  # (namespace, defining module's name, name prefix)
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        owners.append((mod, mod.__name__, short))
        owners += [(cls, mod.__name__, f"{short}.{name}")
                   for name, cls in vars(mod).items()
                   if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    restore = {}  # name -> callables that put the original back

    def recorder(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached.add(name)
            for undo in restore.pop(name, ()):
                undo()
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {}  # id(original) -> (name, original, wrapper); first name wins
    for owner, modname, prefix in owners:
        for name, raw in vars(owner).items():
            fn = _plain(raw)
            if id(fn) not in wrapped and inspect.isfunction(inspect.unwrap(fn)) \
                    and fn.__module__ == modname:
                wrapped[id(fn)] = (f"{prefix}.{name}", fn,
                                   recorder(f"{prefix}.{name}", fn))

    def rebind(val, put):
        """put(wrapper) if ``val`` is a wrapped original; remember put(val)."""
        hit = wrapped.get(id(val))
        if hit is not None and hit[1] is val:
            put(hit[2])
            restore.setdefault(hit[0], []).append(functools.partial(put, val))

    for owner, _modname, _prefix in owners:
        for name, raw in list(vars(owner).items()):
            if isinstance(raw, list):
                for i, item in enumerate(raw):
                    rebind(item, functools.partial(raw.__setitem__, i))
            elif isinstance(raw, (staticmethod, classmethod)):
                rebind(raw.__func__, lambda fn, owner=owner, name=name,
                       kind=type(raw): setattr(owner, name, kind(fn)))
            else:
                rebind(raw, functools.partial(setattr, owner, name))
    for _name, fn, _wrapper in wrapped.values():
        for cell in inspect.unwrap(fn).__closure__ or ():
            try:
                rebind(cell.cell_contents,
                       functools.partial(setattr, cell, "cell_contents"))
            except ValueError:  # an empty cell
                pass
    return {name for name, _fn, _wrapper in wrapped.values()}


def unreached_names(names: set, reached: set) -> list:
    """The names never reached, each class none of whose methods ran named once."""
    out = names - reached
    methods: dict = {}
    for name in names:
        if name.count(".") == 2:
            methods.setdefault(name.rsplit(".", 1)[0], set()).add(name)
    for cls, names_of_cls in methods.items():
        if names_of_cls <= out:
            out = out - names_of_cls | {cls}
    return sorted(out)


def traffic(tmp: str, examples: list):
    """Exit codes of the CLI runs and the text of the ``verify all`` report."""
    from permac import cli

    report = os.path.join(tmp, "verify.json")
    runs = [["--out", report, "verify", "all"]]
    runs += [["--cache-dir", os.path.join(tmp, f"cache{i}"), *argv]
             for i, argv in enumerate(examples)]
    runs.append(["plancherel", "check", "--samples", "2000"])
    codes = []
    with redirect_stdout(io.StringIO()):
        for argv in runs:
            codes.append(cli.main(argv))
    with open(report) as fh:
        return codes, fh.read()


def test_traffic_reaches_every_function_but_the_listed_ones():
    from test_readme_examples import EXAMPLES

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           json.dumps(EXAMPLES)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * (len(EXAMPLES) + 2)
    with open(GOLDEN_VERIFY) as fh:
        assert out["verify"] == fh.read()
    data = json.loads(out["verify"])
    assert data["passed"] is True
    assert len(data["criteria"]) == 10
    # wall-clock timing stays on stderr, so the report is deterministic
    assert all(set(c) == {"name", "passed", "details"}
               for c in data["criteria"])
    unreached = set(out["unreached"])
    # never run: call it, move it to the tests, or list it with a reason
    assert sorted(unreached - set(UNREACHED)) == []
    # now run: drop it from UNREACHED
    assert sorted(set(UNREACHED) - unreached) == []


if __name__ == "__main__":
    if len(sys.argv) > 1:  # the test passes the examples; this saves a pytest import
        examples = json.loads(sys.argv[1])
    else:
        from test_readme_examples import readme_examples
        examples = readme_examples()
    reached: set = set()
    names = install(reached)
    with tempfile.TemporaryDirectory() as tmp:
        codes, verify = traffic(tmp, examples)
    json.dump({"codes": codes, "verify": verify,
               "unreached": unreached_names(names, reached)}, sys.stdout)
