"""One workload run in a fresh interpreter.

Usage: python child.py PLAN.json RESULT.json

Times ``import chiralmeta.cli`` (the set-up every CLI invocation pays; this
file imports nothing heavy before it, so numpy and scipy count), then
calls ``chiralmeta.cli.main(argv)`` for each planned command and writes
wall time, per-command exit codes and peak RSS to RESULT.json.
With ``"trace": true`` in the plan, the tracer is installed first and
its per-layer metrics and spans are written too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import chiralmeta.cli
    result = {"setup_s": time.perf_counter() - t0}
    if plan.get("import_only"):
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    commands = []
    start = time.perf_counter()
    for i, argv in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.run_id = i
        c0 = time.perf_counter()
        try:
            rc = chiralmeta.cli.main(argv)
        except Exception:  # a crash is one failed command; the rest still run
            traceback.print_exc()
            rc = -1
        commands.append({"rc": rc, "s": time.perf_counter() - c0})
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["commands"] = commands
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["fired"] = sorted(tracer.fired())
        tracer.write(plan["spans"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
