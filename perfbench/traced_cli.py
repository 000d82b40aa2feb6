"""Run one fwpp command line with span tracing (the traced cli pass).

Usage: python perfbench/traced_cli.py TRACE_OUT ARG...

Behaves like `python -m fwpp ARG...`: same stdout, stderr and exit code.
The command's stdout is captured while `fwpp.cli.main` runs, then written
out; TRACE_OUT receives the import and main times, the stdout size and the
raw per-layer figures of the run as JSON.
"""

import io
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fwpp.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    t1 = time.perf_counter()
    try:
        rc = fwpp.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout = real_stdout
    text = captured.getvalue()
    sys.stdout.write(text)
    sys.stdout.flush()

    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s,
                   "stdout_bytes": len(text.encode()),
                   "raw": tracer.raw_metrics()}, fh)
    if rc is None:
        return 0
    if not isinstance(rc, int):  # SystemExit("message"), as the interpreter does
        print(rc, file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
