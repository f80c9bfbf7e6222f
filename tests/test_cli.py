import io
import json
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from permac.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_module(*args, timeout=None):
    """Run ``python -m <args>`` with the source tree first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_macdonald_expand_example():
    code, out = run_cli(["macdonald", "expand", "--lambda", "2",
                         "--basis", "m", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    # (1+q)(1-t)/(1-qt) at q=1/3, t=1/5 = (4/3)(4/5)/(14/15) = 8/7
    assert data["coefficients"]["1,1"] == "8/7"
    assert data["coefficients"]["2"] == "1"


def test_macdonald_pieri():
    code, out = run_cli(["macdonald", "pieri", "--lambda", "1", "--mu", "",
                         "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["psi"] == "1"
    assert data["phi"] == "6/5"  # (1-t)/(1-q)


def test_pieri_usage_error_on_bad_strip():
    code, _ = run_cli(["macdonald", "pieri", "--lambda", "1,1", "--mu", "",
                       "--q", "1/3", "--t", "1/5"])
    assert code == 2


def test_process_moment_zero_specs_matches_product():
    code, out = run_cli(["process", "moment", "--series", "E", "--r", "1",
                         "--spec-plus", "zero", "--spec-minus", "zero",
                         "--u-deg", "5", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["oracle_match"] is True
    from fractions import Fraction

    from permac.series import SeriesRing, TruncSeries, qpochhammer

    q, t = Fraction(1, 3), Fraction(1, 5)
    ring = SeriesRing(["u"], 5)
    u = ring.gen("u")
    closed = qpochhammer(ring, [(u, [u]), (u * (q / t), [u])],
                         [(u * q, [u]), (u * (1 / t), [u])]) \
        * (Fraction(1) / (1 - 1 / t))
    assert TruncSeries.from_json(data["series"]) == closed


@pytest.mark.parametrize("series", ["G", "E'"])
def test_process_moment_multi_step_any_series(series):
    code, out = run_cli(["process", "moment", "--series", series, "--N", "2",
                         "--u-deg", "3", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    assert json.loads(out)["oracle_match"] is True


def test_process_partition_function_cli():
    code, out = run_cli(["process", "partition-function", "--N", "2",
                         "--u-deg", "3", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    assert json.loads(out)["oracle_match"] is True


def test_cylindric_verify_example():
    code, out = run_cli(["cylindric", "verify-macmahon", "--N", "2",
                         "--M", "1", "--s-deg", "5", "--q", "1/3",
                         "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_macdonald_expand_in_the_power_sum_basis(kind):
    from fractions import Fraction

    from permac import macdonald
    from permac.scalars import parse_rational

    code, out = run_cli(["macdonald", "expand", "--lambda", "2,1", "--basis", "p",
                         "--kind", kind, "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["quantity"] == f"{kind}_lambda in p basis"
    p_rep = {tuple(int(x) for x in key.split(",")): parse_rational(c)
             for key, c in data["coefficients"].items()}
    q, t = Fraction(1, 3), Fraction(1, 5)
    m_rep = (macdonald.macdonald_P if kind == "P" else macdonald.macdonald_Q)(
        (2, 1), q, t)
    assert macdonald.p_dict_to_m(p_rep) == {mu: c for mu, c in m_rep.items() if c}


@pytest.mark.parametrize("command", [
    ["process", "partition-function"],
    ["process", "moment", "--series", "E", "--r", "1"],
])
def test_process_commands_take_plancherel_specs(command):
    code, out = run_cli([*command, "--N", "1", "--spec-plus", "plancherel",
                         "--spec-minus", "plancherel", "--u-deg", "3",
                         "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["oracle_match"] is True and data["first_mismatch"] is None
    assert data["params"]["specs"] == ["plancherel", "plancherel"]
    from permac.series import TruncSeries

    series = TruncSeries.from_json(data["series"])
    assert series.ring.symbols == ("u", "g")
    assert any(exp[1] for exp in series.terms)  # the Plancherel specs enter


@pytest.mark.parametrize("command,spelling,name", [
    (["process", "partition-function"], "Plancherel", "plancherel"),
    (["process", "moment", "--series", "E", "--r", "1"], " Alpha", "alpha"),
])
def test_spec_names_ignore_case_and_spaces(command, spelling, name):
    reports = []
    for spec in (spelling, name):
        code, out = run_cli([*command, "--N", "1", "--spec-plus", spec,
                             "--u-deg", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["params"]["specs"][0] == spec  # echoed as given
        del report["params"]["specs"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_oracle_report_names_the_first_mismatch(monkeypatch):
    from fractions import Fraction

    from permac import process

    closed = process.partition_function_closed

    def off_at_u2(ps):
        return closed(ps) + ps.ring.monomial(Fraction(1), u=2)

    monkeypatch.setattr(process, "partition_function_closed", off_at_u2)
    code, out = run_cli(["process", "partition-function", "--N", "1",
                         "--u-deg", "3", "--q", "1/3", "--t", "1/5"])
    assert code == 1
    data = json.loads(out)
    assert data["oracle_match"] is False
    assert data["max_abs_discrepancy"] == "nonzero"
    first = data["first_mismatch"]
    assert first["exp"] == {"u": 2, "a0": 0, "b1": 0}
    assert Fraction(first["formula"]) - Fraction(first["oracle"]) == 1


def test_macmahon_report_names_the_first_mismatch(monkeypatch):
    from fractions import Fraction

    from permac import cylindric

    rhs = cylindric.macmahon_rhs

    def off_at_s3(profile, ring, q, t):
        return rhs(profile, ring, q, t) + ring.monomial(Fraction(1), s=3)

    monkeypatch.setattr(cylindric, "macmahon_rhs", off_at_s3)
    code, out = run_cli(["cylindric", "verify-macmahon", "--N", "2", "--M", "1",
                         "--s-deg", "4", "--q", "1/3", "--t", "1/5"])
    assert code == 1
    data = json.loads(out)
    assert data["verified"] is False
    for name in ("macdonald", "hl", "strict", "schur"):
        check = data["checks"][name]
        assert check["match"] is False
        first = check["first_mismatch"]
        assert first["s_degree"] == 3
        assert Fraction(first["rhs"]) - Fraction(first["lhs"]) == 1


def test_cylindric_enumerate_dump():
    code, out = run_cli(["cylindric", "enumerate", "--N", "2", "--M", "1",
                         "--max-weight", "2", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == {"N": 2, "M": [1]}
    assert {"parts": [[], []], "weight": 0, "F": "1", "Phi": "1"} in data["cps"]


def test_vertex_and_fock_checks():
    code, out = run_cli(["vertex", "verify", "--grade", "3",
                         "--q", "1/3", "--t", "1/5"])
    assert code == 0 and json.loads(out)["verified"]
    code, out = run_cli(["fock", "trace-check", "--u-deg", "4",
                         "--trials", "2"])
    assert code == 0 and json.loads(out)["verified"]


def test_sampler_deterministic_output(tmp_path):
    args = ["plancherel", "sample", "--gamma", "0.7", "--beta", "1.0",
            "--times", "0.0,0.4", "--depth", "4", "--count", "5",
            "--seed", "11", "--q", "1/2", "--t", "1/2"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    line = json.loads(out1.splitlines()[0])
    assert set(line) == {"sample", "time", "partition"}


def test_sampler_three_times_golden_and_dropped_mass_on_stderr():
    # stdout is the stored stream; the truncation diagnostic goes to stderr
    proc = run_module("permac", "plancherel", "sample", "--times", "0.0,0.3,0.6",
                      "--depth", "8", "--count", "200", "--seed", "5",
                      "--q", "1/3", "--t", "1/5")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "golden", "plancherel-sample-3time.out")) as fh:
        assert proc.stdout == fh.read()
    assert proc.stderr.count("\n") == 1
    head, mass = proc.stderr.split(" of the cycle")[0].split(": ")
    assert head == "dropped mass" and 0 < float(mass) < 0.05


def test_sampler_out_file_is_the_golden_stream(tmp_path):
    path = tmp_path / "sample.out"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["plancherel", "sample", "--gamma", "0.8", "--beta", "1.0",
                     "--times", "0.0,0.3", "--depth", "6", "--count", "100",
                     "--seed", "7", "--q", "1/2", "--t", "1/2",
                     "--out", str(path)])
    assert code == 0 and out.getvalue() == ""
    with open(os.path.join(ROOT, "tests", "golden", "plancherel-sample.out")) as fh:
        assert path.read_text() == fh.read()
    assert err.getvalue().startswith("dropped mass: ")
    assert err.getvalue().count("\n") == 1


def test_sampler_four_times_at_depth_12_is_the_golden_stream():
    # states up to weight 12, where the level blocks of the sandwich are
    # largest among the goldens; the stderr value is pinned too
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["plancherel", "sample", "--gamma", "1.6", "--beta", "1.0",
                     "--times", "0.0,0.2,0.5,0.8", "--depth", "12", "--count", "250",
                     "--seed", "3", "--q", "1/3", "--t", "1/5"])
    assert code == 0
    with open(os.path.join(ROOT, "tests", "golden", "plancherel-sample-depth12.out")) as fh:
        assert out.getvalue() == fh.read()
    assert err.getvalue() == "dropped mass: 2.467e-02 of the cycle at depth 12\n"


def test_config_file_merges_under_flags(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": "1/3", "t": "1/5", "s_deg": 4}))
    code, out = run_cli(["--config", str(conf), "cylindric",
                         "verify-macmahon", "--N", "1", "--M", "1"])
    assert code == 0
    assert json.loads(out)["s_cutoff"] == 4
    # explicit flag wins over the config value
    code, out = run_cli(["--config", str(conf), "cylindric",
                         "verify-macmahon", "--N", "1", "--M", "1",
                         "--s-deg", "3"])
    assert json.loads(out)["s_cutoff"] == 3
    # top-level keys: a flag beats the config before or after the subcommand,
    # and without one the config value is used
    conf_out, flag_out = tmp_path / "conf-out.json", tmp_path / "flag-out.json"
    conf.write_text(json.dumps({"out": str(conf_out), "seed": 5}))
    fock = ["fock", "trace-check", "--u-deg", "1", "--trials", "1"]
    code, out = run_cli(["--config", str(conf), "--out", str(flag_out), *fock,
                         "--seed", "9"])
    assert code == 0 and out == "" and not conf_out.exists()
    assert json.loads(flag_out.read_text())["params"]["seed"] == 9
    code, out = run_cli(["--config", str(conf), "--seed", "8", *fock,
                         "--out", str(flag_out)])
    assert code == 0 and out == "" and not conf_out.exists()
    assert json.loads(flag_out.read_text())["params"]["seed"] == 8
    code, out = run_cli(["--config", str(conf), *fock])
    assert code == 0 and out == ""
    assert json.loads(conf_out.read_text())["params"]["seed"] == 5


@pytest.mark.parametrize("conf, argv, code, expect", [
    ({"N": "x"}, ["process", "partition-function", "--u-deg", "2"], 2, None),
    ({"N": "2"}, ["process", "partition-function", "--u-deg", "2"], 0,
     lambda d: d["params"]["N"] == 2),
    ({"u_deg": 3}, ["process", "partition-function", "--u-deg=2"], 0,
     lambda d: d["cutoffs"]["grade"] == 2),
    ({"u_deg": 3}, ["process", "partition-function", "--u-d", "2"], 0,
     lambda d: d["cutoffs"]["grade"] == 2),
    ({"u_deg": 3}, ["process", "partition-function", "--u-d=2"], 0,
     lambda d: d["cutoffs"]["grade"] == 2),
    ({"lambda": "1", "kind": "Q"}, ["macdonald", "expand", "--lambda", "2"], 0,
     lambda d: d["params"]["lambda"] == [2] and d["quantity"].startswith("Q")),
    (["N", 2], ["process", "partition-function"], 2, None),
    (b'\xff\xfe{"bad', ["process", "partition-function"], 2, None),
], ids=["bad-type", "converted-type", "equals-flag-wins", "abbreviated-flag-wins",
        "abbreviated-equals-flag-wins", "flag-spelled-key", "not-an-object",
        "not-utf-8"])
def test_config_values_keep_the_flag_contract(tmp_path, conf, argv, code, expect):
    import io
    from contextlib import redirect_stderr

    path = tmp_path / "conf.json"
    path.write_bytes(conf if isinstance(conf, bytes) else json.dumps(conf).encode())
    err = io.StringIO()
    with redirect_stderr(err):
        got, out = run_cli(["--config", str(path), *argv])
    assert got == code, err.getvalue()
    if expect is None:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert expect(json.loads(out))


@pytest.mark.parametrize("conf, argv", [
    ({"lambda": "2,1"}, ["macdonald", "expand"]),
    ({"lambda": "2,1", "mu": "1"}, ["macdonald", "pieri"]),
    ({"N": 2}, ["cylindric", "enumerate", "--M", "1", "--max-weight", "3"]),
    ({"N": "1"}, ["cylindric", "verify-macmahon", "--M", "1", "--s-deg", "3"]),
], ids=["expand", "pieri", "cylindric-enumerate", "cylindric-verify-macmahon"])
def test_config_gives_the_required_flags(tmp_path, conf, argv):
    # argparse checked the required flags before the config was read, so a
    # config value for one exited 2: "the following arguments are required"
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    flags = [word for key, val in conf.items() for word in (f"--{key}", str(val))]
    code, out = run_cli(["--config", str(path), *argv])
    assert code == 0
    assert out == run_cli([*argv, *flags])[1]
    # without the flag or the config value, one error line and exit 2
    for missing in conf:
        path.write_text(json.dumps({k: v for k, v in conf.items() if k != missing}))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(path), *argv])
        assert code == 2 and out == ""
        assert err.getvalue() == f"error: the following arguments are required: --{missing}\n"


@pytest.mark.parametrize("conf", [
    {"out": None}, {"out": True}, {"out": False}, {"cache-dir": None},
    {"out": ["report.json"]}, {"cache_dir": {"path": "x"}}, {"basis": None},
    {"kind": True},
], ids=["out-null", "out-true", "out-false", "cache-dir-null", "out-list",
        "cache-dir-object", "basis-null", "kind-true"])
def test_config_value_flag_takes_only_a_string_or_number(tmp_path, monkeypatch, conf):
    # JSON null, true, false, lists and objects were turned into text: an
    # "out": null report went to a file named None
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps(conf))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["--config", "conf.json", "macdonald", "expand",
                             "--lambda", "1", "--q", "1/3", "--t", "1/5"])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("error: config key ")
    assert err.getvalue().count("\n") == 1
    assert os.listdir(tmp_path) == ["conf.json"]


def test_out_flag_and_cache_dir(tmp_path):
    target = tmp_path / "report.json"
    cache_dir = tmp_path / "cache"
    # a (q, t) point no other test uses, so the in-memory table is cold and
    # the disk write actually happens
    code, out = run_cli(["--out", str(target), "--cache-dir", str(cache_dir),
                         "macdonald", "expand", "--lambda", "2,1",
                         "--q", "2/11", "--t", "3/13"])
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert "coefficients" in data
    cached = list(cache_dir.glob("macdonald.pq-table.*.json"))
    assert cached, "expected a persisted coefficient table"
    payload = json.loads(cached[0].read_text())
    assert payload["version"] == 2 and payload["weight"] == 3
    assert "Q" not in payload


def test_cache_dir_holds_for_one_call(tmp_path):
    # (q, t) points no other test uses, so both tables are cold and each call
    # would write one if a cache dir were set
    cache_dir = tmp_path / "cache"
    code, _ = run_cli(["--cache-dir", str(cache_dir), "macdonald", "expand",
                       "--lambda", "2,1", "--q", "3/11", "--t", "4/13"])
    assert code == 0
    code, _ = run_cli(["macdonald", "expand", "--lambda", "3,1",
                       "--q", "5/11", "--t", "6/13"])
    assert code == 0
    assert len(list(cache_dir.iterdir())) == 1


def test_bad_rational_exits_2():
    code, _ = run_cli(["macdonald", "expand", "--lambda", "1",
                       "--q", "7/3", "--t", "1/5"])
    assert code == 2


def test_console_script_entrypoint():
    # same src-prefixed PYTHONPATH as its neighbours, so it does not depend on
    # how the test runner put permac on sys.path
    proc = run_module("permac.cli", "macdonald", "pieri", "--lambda", "2",
                      "--mu", "1", "--q", "1/3", "--t", "1/5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["psi"]


def test_package_main_runs_cli():
    proc = run_module("permac", "macdonald", "pieri", "--lambda", "2",
                      "--mu", "1", "--q", "1/3", "--t", "1/5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["psi"]


@pytest.mark.parametrize("argv", [
    ["process", "moment", "--r", "0"],
    ["process", "shift-mixed", "--zeta", "0"],
    ["process", "shift-mixed", "--v-deg", "1"],
    ["process", "partition-function", "--u-deg", "-1"],
    ["process", "partition-function", "--N", "0"],
    ["cylindric", "verify-macmahon", "--N", "2", "--M", "5"],
    ["cylindric", "enumerate", "--N", "1", "--max-weight", "-1"],
    ["process", "partition-function", "--spec-plus", "bogus"],
    # a spec list gives one name for every step or exactly N names
    ["process", "partition-function", "--N", "2", "--spec-plus", "alpha;zero;plancherel"],
    ["process", "partition-function", "--N", "3", "--spec-plus", "alpha;zero"],
    ["plancherel", "sample", "--times", "0.0,2.0", "--beta", "1.0"],
    ["plancherel", "sample", "--depth", "-1"],
    ["plancherel", "check", "--depth", "-1"],
    ["plancherel", "check", "--depth", "4", "--samples", "0"],
    ["plancherel", "check", "--depth", "4", "--samples", "1"],
    ["plancherel", "sample", "--gamma", "nan"],
    ["plancherel", "sample", "--gamma", "inf"],
    ["plancherel", "sample", "--gamma", "-0.8", "--times", "0.0,0.3,0.6",
     "--count", "3", "--seed", "4"],
    ["plancherel", "sample", "--gamma", "40"],
    ["plancherel", "sample", "--beta", "nan"],
    ["plancherel", "sample", "--times", "0.0,nan"],
    ["plancherel", "check", "--gamma", "nan", "--depth", "4", "--samples", "100"],
    ["plancherel", "check", "--depth", "4", "--reserve", "9", "--samples", "100"],
    ["plancherel", "check", "--depth", "4", "--reserve", "-1", "--samples", "100"],
    ["plancherel", "check", "--depth", "4", "--reserve", "0", "--samples", "100"],
    ["plancherel", "check", "--depth", "4", "--gamma-deg", "0", "--samples", "100"],
    ["plancherel", "check", "--depth", "4", "--u", "x"],
    ["plancherel", "sample", "--count", "-5"],
    ["plancherel", "sample", "--gamma", "1e100"],
    ["plancherel", "sample", "--q", "1/2", "--t", "3", "--algebraic-point",
     "--depth", "6", "--count", "3"],
    ["plancherel", "check", "--gamma", "1e200", "--depth", "3", "--reserve", "1",
     "--gamma-deg", "2", "--samples", "100"],
    ["plancherel", "check", "--gamma", "1e10", "--depth", "3", "--reserve", "1",
     "--gamma-deg", "2", "--samples", "100"],
    ["vertex", "verify", "--grade", "-1"],
    ["fock", "trace-check", "--u-deg", "-1"],
    ["fock", "trace-check", "--trials", "0"],
    ["macdonald", "expand", "--lambda", "2,1", "--basis", "m", "--q", "2",
     "--t", "1/2", "--algebraic-point"],
    ["macdonald", "expand", "--lambda", "2,1", "--basis", "m", "--q", "1/2",
     "--t", "1", "--algebraic-point"],
    # paths that cannot be written: a directory below a file; the table at
    # (1/7, 2/9) is cold in the fresh process, so the store is attempted
    ["--out", os.path.join(os.devnull, "x.json"), "fock", "trace-check",
     "--u-deg", "2"],
    ["--cache-dir", os.path.join(os.devnull, "sub"), "macdonald", "expand",
     "--lambda", "2,1", "--q", "1/7", "--t", "2/9"],
], ids=" ".join)
def test_domain_errors_exit_2_without_traceback(argv):
    proc = run_module("permac", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_bad_partition_error_reports_the_parts():
    proc = run_module("permac", "macdonald", "expand", "--lambda=1,2",
                      "--q", "1/3", "--t", "1/5")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: bad partition '1,2': "
                           "parts not weakly decreasing: (1, 2)\n")


@pytest.mark.parametrize("command", ["sample", "check"])
def test_plancherel_depth_beyond_dense_limit_exits_2(command):
    # rejected before any matrix is built; the timeout only bounds a failure
    from permac.plancherel import MAX_DEPTH

    proc = run_module("permac", "plancherel", command,
                      "--depth", str(MAX_DEPTH + 1), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


PIERI_2_1 = ["macdonald", "pieri", "--lambda", "2", "--mu", "1"]
PARTITION_FUNCTION = ["process", "partition-function", "--N", "1", "--u-deg", "2"]
CYLINDRIC_ENUMERATE = ["cylindric", "enumerate", "--N", "1", "--M", "1",
                       "--max-weight", "3"]
VERIFY_MACMAHON = ["cylindric", "verify-macmahon", "--N", "1", "--M", "1",
                   "--s-deg", "3"]
MOMENT = ["process", "moment", "--r", "1", "--u-deg", "2", "--series"]
SHIFT_MIXED = ["process", "shift-mixed", "--r", "1", "--v-deg", "4"]


def _at(q, t, *commands):
    return [[*argv, "--q", q, "--t", t] for argv in commands]


@pytest.mark.parametrize("argv", [
    *_at("1", "1/2", PIERI_2_1, PARTITION_FUNCTION, CYLINDRIC_ENUMERATE,
         VERIFY_MACMAHON),
    *_at("1", "1", PIERI_2_1, PARTITION_FUNCTION, CYLINDRIC_ENUMERATE,
         VERIFY_MACMAHON),
    *_at("-1", "1/2", PIERI_2_1, PARTITION_FUNCTION, CYLINDRIC_ENUMERATE,
         VERIFY_MACMAHON),
    *_at("1/2", "1", [*MOMENT, "E"], [*MOMENT, "G'"], SHIFT_MIXED),
    *_at("2", "1/2", PIERI_2_1),
    # no finite value: E and G at t = 0, E' and G' at q = 0 (E' and G' at
    # t = 0 are left open, ROADMAP item 12)
    *_at("1/3", "0", [*MOMENT, "E"], [*MOMENT, "G"]),
    *_at("0", "1/3", [*MOMENT, "E'"], [*MOMENT, "G'"]),
], ids=" ".join)
def test_degenerate_point_exits_2_without_traceback(argv):
    # each formula the command evaluates has a pole at the point
    proc = run_module("permac", *argv, "--algebraic-point")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    *_at("-1", "1/2", ["macdonald", "pieri", "--lambda", "2,1", "--mu", "1"],
         SHIFT_MIXED),
    *_at("1", "1/2", [*MOMENT, "E"], SHIFT_MIXED),
    *_at("2", "1/2", PARTITION_FUNCTION),
], ids=" ".join)
def test_regular_commands_at_degenerate_points_still_exit_0(argv):
    proc = run_module("permac", *argv, "--algebraic-point")
    assert proc.returncode == 0, proc.stderr


HEAVY = ("acceptance", "cylindric", "plancherel", "process", "fock", "laurent")


def test_cheap_commands_load_only_their_modules(tmp_path):
    table = ["--q", "1/3", "--t", "1/5", "--cache-dir", str(tmp_path / "cache")]
    expand = ["macdonald", "expand", "--lambda", "3,1", *table]
    pieri = [*PIERI_2_1, "--q", "1/3", "--t", "1/5"]
    assert run_module("permac", *expand).returncode == 0
    (stored,) = (tmp_path / "cache").iterdir()
    written = stored.stat().st_mtime_ns
    out = [str(tmp_path / "expand.json"), str(tmp_path / "pieri.json")]
    script = (
        "import json, sys\n"
        "from permac import cli\n"
        f"codes = [cli.main(['--out', {out[0]!r}, *{expand!r}]),\n"
        f"         cli.main(['--out', {out[1]!r}, *{pieri!r}])]\n"
        f"loaded = [m for m in {HEAVY!r} if 'permac.' + m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    # without bytecode caching, as the benchmark runs, every loaded module
    # is compiled from source
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": []}
    assert stored.stat().st_mtime_ns == written  # read from the cache, not rebuilt


def test_commands_without_a_cache_directory_load_no_hashlib(tmp_path):
    # hashlib loads OpenSSL, and only a cache directory needs its digests;
    # a hashlib that site already loaded is not the program's
    out = str(tmp_path / "report.json")
    script = (
        "import json, sys\n"
        "before = 'hashlib' in sys.modules\n"
        "from permac import cli\n"
        f"codes = [cli.main(['--out', {out!r}, 'process', 'partition-function',\n"
        "                    '--N', '2', '--u-deg', '4']),\n"
        f"         cli.main(['--out', {out!r}, 'vertex', 'verify'])]\n"
        "loaded = 'hashlib' in sys.modules and not before\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    env = {k: v for k, v in os.environ.items() if k != "PERMAC_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": False}


def test_plancherel_sample_loads_no_numpy_random(tmp_path):
    # numpy.random adds about 6 MB and 11-14 ms at import, and the stream needs
    # only numpy's core ufuncs
    argv = ["--out", str(tmp_path / "sample.out"), "plancherel", "sample",
            "--times", "0.0,0.3", "--count", "50"]
    script = (
        "import json, sys\n"
        "from permac import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'loaded': 'numpy.random' in sys.modules}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "loaded": False}


def test_cache_directory_commands_load_no_openssl(tmp_path):
    # the cache names its files by zlib checksums, so neither a cold expand,
    # which stores its table, nor a warm one, which reads it, loads OpenSSL;
    # a hashlib that site already loaded is not the program's
    cache_dir = tmp_path / "cache"
    argv = ["--out", str(tmp_path / "report.json"), "macdonald", "expand",
            "--lambda", "3,1", "--q", "1/3", "--t", "1/5", "--cache-dir", str(cache_dir)]
    script = (
        "import json, sys\n"
        "before = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "from permac import cli\n"
        f"code = cli.main({argv!r})\n"
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "print(json.dumps({'before': before, 'code': code, 'loaded': loaded}))\n")
    env = {k: v for k, v in os.environ.items() if k != "PERMAC_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    written = None
    for run in ("cold", "warm"):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        if got["before"]:
            pytest.skip(f"site loaded {got['before']} before permac")
        assert {"code": got["code"], "loaded": got["loaded"]} == {"code": 0, "loaded": []}, run
        (stored,) = cache_dir.iterdir()
        if written is not None:
            assert stored.stat().st_mtime_ns == written  # read, not rebuilt
        written = stored.stat().st_mtime_ns


def test_cylindric_counting_commands_load_no_free_field_code(tmp_path):
    # the vertex checks import fock and process inside their functions, so
    # enumeration and the MacMahon identities never load them
    out = str(tmp_path / "report.json")
    script = (
        "import json, sys\n"
        "from permac import cli\n"
        f"codes = [cli.main(['--out', {out!r}, 'cylindric', 'enumerate', '--N', '2',\n"
        "                    '--M', '1', '--max-weight', '4']),\n"
        f"         cli.main(['--out', {out!r}, 'cylindric', 'verify-macmahon',\n"
        "                    '--N', '3', '--M', '1,3', '--s-deg', '4'])]\n"
        "loaded = [m for m in ('cylindric', 'fock', 'process')\n"
        "          if 'permac.' + m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": ["cylindric"]}


def test_parser_keeps_series_choices_and_seed_default():
    proc = run_module("permac", "process", "moment", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "{E,E',G,G'}" in proc.stdout
    from permac.cli import build_parser

    assert build_parser().parse_args(["verify", "all"]).seed == 20240810


# base arguments keep every fuzzed command cheap; the drawn flags come after
# them, and argparse keeps the last value of a repeated flag
FUZZ_COMMANDS = {
    ("plancherel", "sample"): (["--depth", "3", "--count", "5"], {
        "--times": ["0.5,0.3", "0,nan", "0,inf", "", "0,,1", "0,0.5,0.5",
                    "0,0.3,0.6", "0,0.999"],
        "--count": ["0", "-2", "1", "x"],
        "--depth": ["21", "-1", "0", "4", "x"],
        "--gamma": ["-1", "0", "nan", "inf", "1e-300", "25", "1e10", "1e100"],
        "--beta": ["0", "-1", "inf", "1e-300", "1e300", "0.5"],
        "--seed": ["-3", "0", "x"],
    }),
    ("plancherel", "check"): (["--depth", "3", "--reserve", "1", "--gamma-deg", "2",
                               "--samples", "200"], {
        "--depth": ["21", "-1", "0", "2", "4"],
        "--reserve": ["-1", "0", "2", "9"],
        "--gamma-deg": ["-1", "0", "1", "40"],
        "--samples": ["0", "1", "50"],
        "--gamma": ["-1", "nan", "0", "30", "1e10", "1e200"],
        "--u": ["1/0", "nan", "0", "1", "-1", "x", "7"],
        "--v": ["1/0", "1/2", "2"],
        "--beta": ["0", "1e-300", "1e300"],
    }),
    ("vertex", "verify"): (["--grade", "2"], {
        "--grade": ["-1", "0", "1", "x"],
        "--nu": ["1,2", "x", "1", ""],
    }),
    ("fock", "trace-check"): (["--u-deg", "2", "--trials", "1"], {
        "--u-deg": ["-1", "0", "1"],
        "--trials": ["-1", "0", "2"],
    }),
    ("process", "partition-function"): (["--u-deg", "2"], {
        "--N": ["-1", "0", "2"],
        "--u-deg": ["-1", "0", "1"],
        "--spec-plus": ["zero", "alpha", "plancherel", "bogus", ""],
        "--spec-minus": ["alpha;zero", "plancherel"],
    }),
    ("cylindric", "enumerate"): (["--N", "1", "--max-weight", "2"], {
        "--N": ["-1", "0", "2"],
        "--M": ["", "0", "1,1", "x", "3", "-1,1"],
        "--max-weight": ["-1", "0", "1"],
    }),
    ("macdonald", "expand"): (["--lambda", "2,1"], {
        "--lambda": ["", "1,2", "-1", "x", "3"],
        "--basis": ["m", "p", "z"],
        "--kind": ["P", "Q", "R"],
    }),
}
FUZZ_QT = ["1/3", "1/2", "0", "1", "2", "-1", "1/0", "x"]


def _fuzz_argv(rng):
    command = rng.choice(sorted(FUZZ_COMMANDS))
    base, flags = FUZZ_COMMANDS[command]
    argv = [*command, *base]
    for flag in rng.sample(sorted(flags), rng.randint(0, min(3, len(flags)))):
        argv += [flag, rng.choice(flags[flag])]
    if rng.random() < 0.3:
        argv += ["--q", rng.choice(FUZZ_QT), "--t", rng.choice(FUZZ_QT)]
        if rng.random() < 0.5:
            argv.append("--algebraic-point")
    return argv


FUZZ_EXAMPLES = [
    ["plancherel", "sample", "--times", "0.5,0.3"],
    ["plancherel", "sample", "--times", "0,nan"],
    ["plancherel", "sample", "--count", "0"],
    ["plancherel", "sample", "--depth", "21"],
    ["plancherel", "sample", "--gamma", "-1"],
    ["plancherel", "check", "--depth", "3", "--reserve", "4"],
    ["plancherel", "check", "--u", "1/0"],
]


def test_cli_fuzz_exits_0_1_or_2_without_traceback():
    rng = random.Random(20261018)
    cases = FUZZ_EXAMPLES + [_fuzz_argv(rng) for _ in range(80)]
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:
                raise AssertionError(f"{argv}: {exc!r}") from exc
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert not caught, (argv, [str(w.message) for w in caught])
