"""Run the ``permac`` command line the way its console script does.

With ``PERFBENCH_TRACE_FILE`` set, the run is traced: the file receives the
span aggregates, the interpreter start-up time (from
``PERFBENCH_SPAWNED_AT``, the parent's ``time.monotonic()`` at the spawn)
and the time to import ``permac.cli``.
"""

import json
import os
import sys
import time


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_FILE")
    if not out:
        from permac.cli import main as cli_main

        return cli_main()
    interpreter_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWNED_AT"])
    started = time.perf_counter()
    import permac.cli

    import_s = time.perf_counter() - started
    from spans import Tracer, install

    tracer = Tracer(keep_spans=0)
    install(tracer)
    try:
        return permac.cli.main()
    finally:
        with open(out, "w") as fh:
            json.dump({"interpreter_s": interpreter_s, "import_s": import_s,
                       "aggregates": tracer.aggregates()}, fh)


if __name__ == "__main__":
    sys.exit(main())
