"""Benchmark of arithflow: one command, three workloads.

    python3 bench/run.py --workload {construct,fibres,lax} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the library is imported from the src/ directory next to
this one, and the run fails (exit 2, no result) if it is not there.  One
process, one thread, closed loop: each operation starts when the previous one
ends.  The run sets up several times (once when traced), then runs whole
rounds of the workload's seeded operations until the rounds have taken
--seconds, checking every output after its round, outside the timed region.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the library is traced and the metrics are the per-layer ones.
A copy of the result, with the per-round times, goes to bench/out/; a traced
run also writes its spans there and, if the untraced run of the same
workload and seed is there, prints the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# Set up at least 3 times and for at least this long, so that 20 ms set-ups
# are sampled across several periods of machine noise (0.1 s to seconds on
# the 2-core reference machine) rather than one.
SETUP_SECONDS = 3.0


def load_library():
    """Put the checkout's src/ first on sys.path and import arithflow from it."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import arithflow
    if Path(arithflow.__file__).resolve().parent.parent != SRC:
        raise ImportError("arithflow was imported from %s, not from %s"
                          % (arithflow.__file__, SRC))


def _phase(tracer, fn):
    """Run fn, traced if there is a tracer: (result, seconds, marks)."""
    start = tracer.mark() if tracer else None
    if tracer:
        tracer.on = True
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.on = False
    return out, seconds, (start, tracer.mark()) if tracer else None


def _run_ops(ops):
    outputs = []
    for label, thunk in ops:
        try:
            outputs.append((label, thunk()))
        except Exception as exc:  # an operation that raises has failed
            outputs.append((label, exc))
    return outputs


def run(workload, seed, seconds, traced, smoke=False, spans_path=None):
    """Set up, run rounds for `seconds`, check; returns (result, detail)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload](seed, smoke)
    tracer = tracing.Tracer(count_padic=wl.count_padic) if traced else None
    if tracer:
        tracer.install()
    setup_s, round_s, round_marks, failures = [], [], [], []
    attempted = failed = 0
    correct = True
    try:
        while True:
            state, dt, setup_marks = _phase(tracer, wl.setup)
            setup_s.append(dt)
            if tracer or len(setup_s) >= 3 and sum(setup_s) >= SETUP_SECONDS:
                break
        while not round_s or sum(round_s) < seconds:
            ops = wl.round_ops(state)
            outputs, dt, marks = _phase(tracer, lambda: _run_ops(ops))
            round_s.append(dt)
            round_marks.append(marks)
            attempted += len(ops)
            for label, out in outputs:
                if isinstance(out, Exception):
                    msg = "raised %s: %s" % (type(out).__name__, out)
                else:
                    msg = wl.check(label, out)
                    correct = correct and msg is None
                if msg is not None:
                    failed += 1
                    failures.append("%s: %s" % (label, msg))
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        if spans_path:
            tracer.write(spans_path)
        described = wl.describe(state, [o for _, o in outputs if not isinstance(o, Exception)])
        metrics = tracing.per_layer_metrics(tracer, setup_marks, round_marks, described)
    else:
        metrics = {
            "round_s": {"value": sum(round_s) / len(round_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, {"setup_s": setup_s, "round_s": round_s, "failures": failures[:20]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("construct", "fibres", "lax"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a small size of the workload that runs in seconds")
    args = ap.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print("bench: cannot import arithflow from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    stem = "%s-seed%d-trace%%d%s" % (args.workload, args.seed, "-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace,
                         args.smoke, OUT / (stem % 1 + "-spans.json.gz"))
    (OUT / (stem % args.trace + ".json")).write_text(json.dumps(dict(result, **detail), indent=1))

    rounds = detail["round_s"]
    mean = sum(rounds) / len(rounds)
    print("%s seed %d: %d rounds of %.4f s mean (%.4f s median); %d set-ups"
          % (args.workload, args.seed, len(rounds), mean, statistics.median(rounds),
             len(detail["setup_s"])))
    untraced = OUT / (stem % 0 + ".json")
    if args.trace and untraced.exists():
        base = json.loads(untraced.read_text())["metrics"]["round_s"]["value"]
        print("tracing overhead: round %.4f s traced against %.4f s untraced (%+.1f%%)"
              % (mean, base, 100.0 * (mean / base - 1.0)))
    for msg in detail["failures"]:
        print("FAILED " + msg)
    for name, m in result["metrics"].items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
