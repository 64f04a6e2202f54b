"""Run one CLI operation with layer tracing on.

Usage: ``python traced_cli.py TRACE_JSON SPAWN_TIME TRACE_ID SUBCOMMAND [FLAGS...]``

``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so the span
``cli.import`` covers interpreter start-up plus ``import ioresponse.cli``.
The spans and counters are written to ``TRACE_JSON`` and the CLI's exit
code is passed on.
"""

import sys
import threading
import time

import ioresponse.cli as cli

IMPORTED = time.perf_counter()

import json  # noqa: E402

from tracing import Span, Tracer, install  # noqa: E402


def main() -> int:
    out_path, spawned, trace_id = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    tracer = Tracer(trace_id)
    tracer.spans.append(Span("cli.import", spawned, IMPORTED, trace=trace_id,
                             thread=threading.get_ident()))
    install(tracer)
    index = tracer.open("cli.run")
    try:
        code = cli.run(sys.argv[4:])
    finally:
        tracer.close(index)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
