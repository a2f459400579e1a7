"""One benchmark process: build a bundle, then run one suite via the CLI.

    python3 perfbench/child.py SRC BUNDLE SUITE [--setup-only | --trace]

SRC is the directory holding the ``qpbcalc`` package. The process imports
qpbcalc, calls ``qpbcalc.build_example(BUNDLE)`` and then
``qpbcalc.cli.main(["check", SUITE, "--example", BUNDLE, "--format",
"json"])``. It prints one JSON line: the CLOCK_MONOTONIC time at which
``build_example`` returned, the CLI's exit code and its reports, and with
--trace the layer figures of tracer.export. With --setup-only it stops
after the build.
"""

import contextlib
import io
import json
import os
import sys
import time


def main(argv):
    src, bundle_name, suite = argv[1:4]
    mode = argv[4] if len(argv) > 4 else ""
    sys.path.insert(0, src)
    import qpbcalc
    from qpbcalc import cli

    if not os.path.abspath(qpbcalc.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported qpbcalc from {qpbcalc.__file__}, "
                         f"not from {src}")
    tracer = None
    if mode == "--trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    bundle = qpbcalc.build_example(bundle_name)
    result = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode != "--setup-only":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result["exit"] = cli.main(["check", suite, "--example",
                                       bundle_name, "--format", "json"])
        result["reports"] = json.loads(out.getvalue())
        if tracer is not None:
            result["trace"] = tracing.export(tracer, bundle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
