"""One benchmark sample: the qprism CLI in a fresh process.

Runs ``qprism.cli.main`` from this checkout's ``src`` exactly as the
``qprism`` console script does, optionally under the tracer, then writes
what the parent cannot see from outside to a JSON file: when ``main``
was entered, how long the import took, and the trace.

    python3 perfbench/launch.py INFO_JSON TRACE(0|1) [qprism flags...]
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    info_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.monotonic()
    import qprism.cli
    info = {"import_s": time.monotonic() - t0}
    if trace:
        from spans import install_tracer
        tracer = install_tracer()
        code = tracer.run_root(qprism.cli.main, argv)
        sys.stdout.flush()
        info["trace"] = tracer.dump(info_path + ".spans")
    else:
        info["main_entered"] = time.monotonic()
        code = qprism.cli.main(argv)
    with open(info_path, "w") as fh:
        json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
