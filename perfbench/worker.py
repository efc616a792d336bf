"""One benchmark job in a fresh process: call the ``fedsvm`` command line
in-process, traced or not, and write what the parent needs as JSON.

Usage: python3 perfbench/worker.py RESULT_JSON TRACE(0|1) FEDSVM_ARGS...
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from fedsvm import cli
    from fedsvm.svm import backend

    record = {"backend": backend.BACKEND_NAME}
    if trace:
        from tracer import Tracer, calls_under, patched, summarize

        tracer = Tracer()
        with patched(tracer):
            with tracer.span("cli.main"):
                code = cli.main(cli_args)
        record["layers"] = summarize(tracer.spans)
        record["counters"] = dict(tracer.counters)
        record["calls_per_experiment"] = calls_under(tracer.spans, "harness.run_experiment")
    else:
        code = cli.main(cli_args)
    record["exit_code"] = code
    result_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
