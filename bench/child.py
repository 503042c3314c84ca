"""One `qsopt train` run in a fresh process, as the `qsopt` command runs it.

Usage: python3 bench/child.py SRC_DIR CONFIG RESULT_JSON [TRACE_JSON]

Imports qsopt from SRC_DIR, calls the CLI entry point with
`train --config CONFIG`, and writes the exit code and the process's peak
resident memory to RESULT_JSON. With TRACE_JSON the run is traced and
its spans are written there. Set QSOPT_THREADS in the environment; the
CLI applies it before numpy loads.
"""

import json
import resource
import sys


def main(argv) -> int:
    src, config, result_path = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, src)
    from qsopt import cli

    tracer = None
    if trace_path:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = cli.main(["train", "--config", config])
    if tracer is not None:
        tracer.dump(trace_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "peak_rss_mb": peak_kib / 1024.0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
