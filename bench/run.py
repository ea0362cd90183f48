"""mixedfp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``mixedfp`` is imported from
``src/``.  One workload runs per process, single threaded.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when ``--trace 0``, the
per-layer metrics when ``--trace 1``.  A fuller record of the run (versions,
per-case statistics, the instance mix, spans) is written to
``.bench_runs/<workload>-seed<N>-trace<T>.json``.  See ``bench/NOTES.md``.
"""

import os

# Before numpy is imported: the n = 1000 matvec would otherwise start one
# BLAS thread per core, and the benchmark measures one single-threaded caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_REPEATS = 5
# The calibration loop's time at the reference speed that ``setup_s`` is
# scaled to; about its median on the 2-vCPU shared VM the bounds were set on.
REFERENCE_CAL_S = 0.005
CAL_EVERY_S = 0.25


def summarize(values):
    out = {"n": len(values), "p50": statistics.median(values),
           "min": min(values), "max": max(values)}
    # a percentile is reported only with at least ten samples beyond it
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def environment(seed):
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Run:
    """Counts ops and gate failures; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def gate(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}")
            print(f"gate failed: {label}: {detail}", file=sys.stderr)

    def op(self, fn, tracer):
        """Run one op; an op that raises counts as failed and yields None."""
        try:
            op = fn(tracer)
        except Exception:  # an op boundary: record it and keep measuring
            detail = traceback.format_exc()
            print(detail, file=sys.stderr)
            self.gate("op raised", False, detail.strip().splitlines()[-1])
            return None
        self.gate(op.case, op.ok, op.detail)
        return op


def set_up(workload, cal, setups):
    """Build all of the workload's inputs and return the set-up gates.

    The build is timed after the last calibration in ``cal`` and followed
    by a new one; ``setups`` gets the raw build time and the mean of the
    two calibrations around it.
    """
    if not cal:
        cal.append(calibration_s())
    start = perf_counter()
    gates = workload.setup()
    seconds = perf_counter() - start
    cal.append(calibration_s())
    setups.append((seconds, (cal[-2] + cal[-1]) / 2))
    return gates


def calibration_s():
    """Median wall time of a fixed loop made of what the solver's hot paths
    are made of: ``np.vectorize`` over a grid, small-array numpy operations
    and PCHIP construction and evaluation.

    A shared host can run the process at two speeds that alternate within
    seconds; run next to the ops, the loop measures the speed of the moment.  Its
    mix slows down in the slow phase by about as much as the workloads do
    (1.35x against 1.2-1.4x, where a pure-Python loop slows 1.6x).
    """
    import numpy as np
    from scipy.interpolate import PchipInterpolator

    grid = np.linspace(1.0, 2.0, 70)
    nodes, targets = np.linspace(1.0, 2.0, 201), np.linspace(1.0, 2.0, 256)
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = float(np.sum(np.vectorize(lambda t, s: 1.0 / (t * s))(grid[:, None], grid)))
        for _ in range(300):
            acc += float(np.max(np.abs(np.diff(grid))))
        for _ in range(10):
            acc += float(PchipInterpolator(nodes, nodes * nodes)(targets)[0])
        times.append(perf_counter() - start)
    return statistics.median(times)


def play_round(workload, round_index, run, tracer, cal):
    """One round: its ops, each paired with its calibration unit.

    The ops run in chunks of at least ``CAL_EVERY_S`` of op time, with the
    calibration loop after each chunk; an op's unit is the mean of the
    calibrations before and after its chunk.  ``cal`` holds the series.
    """
    paired, chunk, busy = [], [], 0.0
    ops = workload.round_ops(round_index)
    for index, fn in enumerate(ops):
        op = run.op(fn, tracer)
        if op is not None:
            chunk.append(op)
            busy += op.seconds
        if busy >= CAL_EVERY_S or index == len(ops) - 1:
            cal.append(calibration_s())
            unit = (cal[-2] + cal[-1]) / 2
            paired.extend((o, unit) for o in chunk)
            chunk, busy = [], 0.0
    return paired


def measure(workload, seconds, run, cal, setups, tracer=None):
    """Rounds until ``seconds`` have passed, after one warm-up op.

    The set-up is repeated between rounds, evenly over the run, until
    ``setups`` holds ``SETUP_REPEATS`` samples; back-to-back repeats would
    all fall in one phase of the host's speed.  Returns the plain ops with
    their calibration units, the round times in seconds and in calibration
    units, and the trace marks.  With a tracer, rounds alternate untraced
    and traced, so that the tracing overhead is measured inside one process.
    """
    run.op(workload.round_ops(0)[0], None)
    rounds = {"plain": [], "plain_cal": [], "traced": [], "traced_cal": []}
    ops, marks = [], []
    cal.append(calibration_s())
    start = perf_counter()
    r = 0
    min_rounds = 1 if tracer is None else 2
    while r < min_rounds or perf_counter() - start < seconds:
        if (len(setups) < SETUP_REPEATS
                and perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            set_up(workload, cal, setups)
        traced = tracer is not None and r % 2 == 1
        mark = tracer.mark() if traced else None
        timed = play_round(workload, r, run, tracer if traced else None, cal)
        total = sum(op.seconds for op, _ in timed)
        kind = "traced" if traced else "plain"
        rounds[kind].append(total)
        rounds[kind + "_cal"].append(sum(op.seconds / unit for op, unit in timed))
        if traced:
            marks.append((mark, tracer.mark(), total))
        else:
            ops.extend(timed)
        r += 1
    return ops, rounds, marks


def case_stats(workload, ops):
    stats = {}
    for case in workload.cases:
        timed = [(op, unit) for op, unit in ops if op.case == case]
        if timed:
            stats[case] = summarize([op.seconds for op, _ in timed])
            stats[case]["p50_cal"] = statistics.median(op.seconds / unit for op, unit in timed)
            sweeps = sorted({op.sweeps for op, _ in timed if op.sweeps})
            if sweeps:
                stats[case]["sweeps"] = sweeps
    return stats


def end_to_end(setups, rounds, stats):
    """``setup_s`` is the median build time scaled to the reference speed,
    the speed at which the calibration loop takes ``REFERENCE_CAL_S``."""
    return {
        "setup_s": (statistics.median(
            seconds * REFERENCE_CAL_S / unit for seconds, unit in setups), "s"),
        "round_cal.p50": (statistics.median(rounds["plain_cal"]), "cal"),
        "case_cal.geomean": (
            statistics.geometric_mean(s["p50_cal"] for s in stats.values()), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_summary(tracer, rounds, marks):
    """Self time per layer per traced round, and the tracing overhead as a
    share of the untraced round, both rounds in calibration units."""
    from spans import by_layer

    per_round = []
    unaccounted = []
    for since, until, total in marks:
        per_round.append(by_layer(tracer.self_times(since, until)))
        unaccounted.append(total - tracer.root_time(since, until))
    layers = sorted({name for r in per_round for name in r})
    plain = statistics.median(rounds["plain_cal"])
    traced = statistics.median(rounds["traced_cal"])
    return {
        "plain_round_s.p50": statistics.median(rounds["plain"]),
        "traced_round_s.p50": statistics.median(rounds["traced"]),
        "overhead_share": traced / plain - 1.0,
        "unaccounted_s.p50": statistics.median(unaccounted),
        "self_s_per_round": {
            name: statistics.median(r.get(name, 0.0) for r in per_round) for name in layers
        },
        "counts_per_round": {name: c / len(marks) for name, c in tracer.counts.items()},
    }


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run()
    workload = WORKLOADS[args.workload](args.seed, OUT / "work" / args.workload)
    cal, setups = [], []
    for label, ok in set_up(workload, cal, setups):
        run.gate(label, ok)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "setups": setups, "calibration_s": cal}
    if hasattr(workload, "mix"):
        record["mix"] = workload.mix()

    if args.trace:
        from layers import layer_metrics
        from spans import Tracer

        tracer = Tracer()
        ops, rounds, marks = measure(workload, args.seconds, run, cal, setups, tracer)
        record["trace"] = trace_summary(tracer, rounds, marks)
        record["spans"] = tracer.spans
        metrics = layer_metrics(args.seed)
        metrics["trace.overhead_share"] = (record["trace"]["overhead_share"], "ratio")
        metrics["trace.unaccounted_s"] = (record["trace"]["unaccounted_s.p50"], "s")
    else:
        ops, rounds, _ = measure(workload, args.seconds, run, cal, setups)
        stats = case_stats(workload, ops)
        metrics = end_to_end(setups, rounds, stats)
        record["cases"] = stats
        record["rounds"] = rounds
        record["round_s.p50"] = statistics.median(rounds["plain"])
        record["case_s.geomean"] = statistics.geometric_mean(s["p50"] for s in stats.values())
        record["ops_per_s"] = len(ops) / sum(rounds["plain"])

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(result, ops_failed_ratio=run.failed / run.attempted,
                  failures=run.failures[:50])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "mixedfp" / "__init__.py").is_file():
        sys.exit(f"no mixedfp sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
