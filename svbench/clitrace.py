"""Run one ``svfield`` CLI command with the benchmark's span wrappers.

    python3 svbench/clitrace.py SPANS_OUT -- <svfield arguments>

The parent passes its wall-clock spawn time in ``SVBENCH_SPAWN_T`` so the
interpreter start and imports count as ``cli.startup``. Spans are written
to SPANS_OUT when the command returns; the exit code is the command's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py SPANS_OUT -- <svfield arguments>")
    import spans
    from svfield import cli

    tracer = spans.Tracer()
    tracer.install()
    startup = time.time() - float(os.environ["SVBENCH_SPAWN_T"])
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.record(label=" ".join(argv[:1]), startup_s=startup), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
