"""One round of one workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  The first thing it does is
import jshm.cli, so the moment that import returns (on the system-wide
monotonic clock, which run.py also reads just before starting this
process) ends the set-up time.  Then it runs every operation of the
workload once, closed loop, timing each call and checking its output
outside the timed region, and prints one JSON line with the results.

After each operation (and once right after the import) it measures the
host's slowness with a reference of ``speed``, which run.py uses to scale
the times to the nominal host speed.

Modes: ``probe`` only imports; ``plain`` runs the round; ``traced``
installs the tracer first and adds the per-layer summary.
"""

import time

_BEFORE_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)
import jshm.cli  # noqa: E402  (the import is what set-up time measures)

_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _jshm_is_local(root: str) -> bool:
    src = os.path.realpath(os.path.join(root, "src", "jshm"))
    return os.path.dirname(os.path.realpath(jshm.cli.__file__)) == src


def _run_round(workload: str, seed: int, workdir: str, traced: bool,
               in_process: bool) -> dict:
    make = workloads.WORKLOADS[workload]
    if workload == "cli":
        ops = make(seed, workdir, in_process=in_process)
    else:
        ops = make(seed, workdir)
    # the set-up half of a search, timed apart from the traced spans
    search_setup = workloads.designs.search_design
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()

    # the CLI commands start an interpreter each, the other operations compute
    if workload == "cli" and not in_process:
        slowness = speed.start_slowness
    else:
        slowness = speed.loop_slowness
    clock = time.perf_counter
    rows = []
    search_setup_s = 0.0
    for idx, op in enumerate(ops):
        error = None
        result = None
        start = clock()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.run_op(idx, op.run)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        latency = clock() - start
        status = "ok"
        if error is None:
            try:
                op.check(result)
            except workloads.CommandFailed as exc:
                status, error = "error", str(exc)
            except Exception as exc:  # a check that breaks is a wrong output
                status, error = "wrong", f"{type(exc).__name__}: {exc}"
        else:
            status = "error"
        rss_kb = getattr(result, "maxrss_kb", None)
        del result
        if tracer is not None and op.search is not None and status == "ok":
            start = clock()
            with tracer.paused():
                search_setup(*op.search, 0)
            search_setup_s += clock() - start
        rows.append([op.label, latency, status, rss_kb, op.known_fault, error,
                     slowness()])

    out = {"ops": rows,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        summary = tracer.summary()
        layers = tracing.layer_metrics(summary)
        layers["designs.search_setup_s"] = search_setup_s
        out["layers"] = layers
        out["skipped"] = summary["skipped"]
        tracer.write(os.path.join(workdir, f"spans-{workload}.json"),
                     [op.label for op in ops])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--in-process", action="store_true",
                        help="cli only: run the README commands through jshm.cli.main")
    args = parser.parse_args()
    if not _jshm_is_local(args.root):
        sys.stderr.write(f"jshm imported from {jshm.cli.__file__}, not {args.root}/src\n")
        return 2
    out = {"ready": _READY, "import_s": _READY - _BEFORE_IMPORT,
           "ready_slowness": speed.start_slowness()}
    if args.mode != "probe":
        out.update(_run_round(args.workload, args.seed, args.workdir,
                              args.mode == "traced", args.in_process))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
