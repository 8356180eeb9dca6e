"""Run one dlczsim CLI command with layer tracing.

    python3 perfbench/cli_runner.py SPANS_JSON SPAWN_TIME <dlczsim arguments...>

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so interpreter start-up is
a span too.  Times ``import dlczsim.cli``, installs the timing wrappers,
calls ``dlczsim.cli.main`` as the ``dlczsim`` console script would, writes
the spans to SPANS_JSON and exits with the command's exit code.
"""

import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer


def main() -> int:
    start = perf_counter()
    spans_path, spawned = Path(sys.argv[1]), float(sys.argv[2])
    tracer = Tracer()
    tracer.op = 1
    tracer.record("python.startup", spawned, start)
    start = perf_counter()
    import dlczsim.cli
    from dlczsim import fock

    tracer.record("import", start, perf_counter())
    tracer.install()
    code = 0
    try:
        tracer.wrap("cli.main", dlczsim.cli.main)(args=sys.argv[3:], prog_name="dlczsim")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        misses = fock.beamsplitter_unitary.cache_info().misses
        tracer.dump(spans_path, bs_unitary_misses=misses, exit_start=perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main())
