"""Run one onoffpriv CLI command in this fresh process, as a user's shell would.

    python3 perfbench/child.py RECORD TRACED ARGV...

Imports `onoffpriv.cli` from the `src/` tree next to this directory, calls
`main(ARGV)` and exits with its return code. RECORD receives a JSON object:
`imported`, the time.monotonic() reading (a clock shared by every process on
Linux) when the import finished, and with TRACED=1 the spans of the run.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    record_path, traced, *argv = sys.argv[1:]
    sys.path.insert(0, SRC)
    tracer = None
    if traced == "1":
        import spans

        tracer = spans.Tracer()
        with tracer.span(spans.IMPORT_SPAN):
            import onoffpriv.cli
        spans.install(tracer)
    else:
        import onoffpriv.cli
    record = {"imported": time.monotonic()}
    code = onoffpriv.cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
