"""One benchmark job: a fresh interpreter running one visco1d CLI command.

Usage: python3 job.py RESULT.json CONFIG [--trace] -- CLI-ARGS...

Times the set-up a user pays on every invocation (``import visco1d`` plus
``parse_config`` of the job's config), then runs ``cli_main`` on CLI-ARGS and
writes {"setup_s", "exit_code"} (plus the spans, when traced) to RESULT.json.
The process exits with the CLI's exit code.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from visco1d import cli  # imports the whole package

    result_path, config_path, *rest = sys.argv[1:]
    with open(config_path, encoding="utf-8") as fh:
        cli.parse_config(fh.read())
    setup_s = time.perf_counter() - t0

    sep = rest.index("--")
    traced = "--trace" in rest[:sep]
    argv = rest[sep + 1:]
    record: dict = {"setup_s": setup_s}
    if traced:
        from tracing import Tracer, install

        tracer = Tracer()
        cli_main = install(tracer)
        try:
            code = cli_main(argv)
        finally:
            tracer.restore()
        record.update(tracer.dump())
    else:
        code = cli.cli_main(argv)
    sys.stdout.flush()
    record["exit_code"] = code
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
