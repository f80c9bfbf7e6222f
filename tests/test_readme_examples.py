"""The README's CLI examples print exactly the stored golden reports.

Each ``permac ...`` line of the README's CLI block runs in-process through
``cli.main`` and its stdout is compared byte for byte with
``tests/golden/<group>-<command>.out``.  ``verify all`` and ``plancherel
check`` are left to the acceptance tests.  Run this file as a script
(``PYTHONPATH=src python tests/test_readme_examples.py``) to rewrite the
golden files from the current code.
"""

import io
import os
import shlex
from contextlib import redirect_stdout

import pytest

from permac.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
SKIP = {("verify", "all"), ("plancherel", "check")}


def readme_examples():
    """argv lists of the README CLI block, continuation lines joined."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```")[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["permac"] and tuple(words[1:3]) not in SKIP:
            commands.append(words[1:])
    return commands


def golden_path(argv):
    return os.path.join(GOLDEN, f"{argv[0]}-{argv[1]}.out")


def run(argv, cache_dir):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--cache-dir", str(cache_dir), *argv])
    return code, buf.getvalue()


EXAMPLES = readme_examples()


def test_readme_block_has_the_examples():
    assert len(EXAMPLES) == 10
    assert len({golden_path(a) for a in EXAMPLES}) == len(EXAMPLES)


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_output_is_golden(argv, tmp_path):
    code, out = run(argv, tmp_path)
    assert code == 0
    with open(golden_path(argv)) as fh:
        assert out == fh.read()


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for argv in EXAMPLES:
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run(argv, tmp)
        assert code == 0, argv
        with open(golden_path(argv), "w") as fh:
            fh.write(out)
        print(golden_path(argv))
