"""Run one ``standout`` command line from the source tree, optionally traced.

    python3 bench/cli_child.py <spans.json | -> <subcommand> [args...]

With a path instead of ``-``, the program's entry points are wrapped by
the benchmark's tracer and the spans, with the time taken to import the
command line module, are written to that path as JSON.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from standout.cli import main as cli_main
    import_s = time.perf_counter() - t0
    if spans_path == "-":
        return cli_main(argv)
    import json

    from bench.tracer import Tracer
    tracer = Tracer()
    tracer.install()
    code = cli_main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
