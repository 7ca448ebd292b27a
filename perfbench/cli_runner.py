"""Run one attrikit CLI command with the benchmark's tracing wrappers installed.

Usage: python3 cli_runner.py SPANS_OUT ARGV...

Times the import of ``attrikit.cli``, installs the same wrappers as the
library workloads, calls ``cli.main(ARGV)`` inside a ``cli.main`` span and
writes the spans to SPANS_OUT as JSON lines. Exits with the CLI's code.
"""

import json
import sys
import time

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.phase = "command"
    import_started = time.perf_counter()
    from attrikit import cli

    tracer.spans.append({"id": 0, "name": "cli.import", "parent": None, "op": None, "phase": tracer.phase,
                         "start": import_started, "end": time.perf_counter()})
    tracing.install(tracer)
    code = tracer.call("cli.main", cli.main, (argv,))
    with open(spans_out, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
