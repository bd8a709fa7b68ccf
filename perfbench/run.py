"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 20 --trace 0

Run it from anywhere; it measures the skewloci sources under ``src/`` next
to this directory and exits 2 when they are missing.  The process runs one
workload: an untimed warm-up pass on a few inputs, then timed passes, each
over a new input set drawn from ``--seed`` and the pass index, until the next
pass would end after ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the program's layers (see tracing.py) and reports
the per-layer metrics instead.  A line starting with ``perfbench-info``
before the result carries the sample counts, outcome ratios and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 120


def percentile(xs, p):
    """Linear interpolation between the closest ranks of the sorted sample."""
    xs = sorted(xs)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def probe(*args):
    """Run probes.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probes.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "skewloci").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }


def pass_inputs(workload, seed, pass_index, tiny):
    ops = workload.build(seed, SRC, pass_index)
    return workload.cut(ops) if tiny else ops


def run_passes(workload, seed, ctx, seconds, tiny, tracer):
    """Whole passes until the next one would end after the deadline.

    Pass k sends the input set drawn for (seed, k); only pass 0 has
    recorded digests.
    """
    from workloads import PassResult

    recorded = ctx.recorded
    passes, layers, elapsed = [], [], []
    start = time.perf_counter()
    while True:
        ops = pass_inputs(workload, seed, len(passes), tiny)
        ctx.recorded = recorded if not passes else None
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        res = PassResult()
        workload.run(ctx, res, ops, tiny)
        elapsed.append(time.perf_counter() - t0)
        passes.append(res)
        if tracer is not None:
            from tracing import layer_metrics

            layers.append(layer_metrics(tracer))
        spent = time.perf_counter() - start
        if tiny or spent + statistics.median(elapsed) > seconds:
            ctx.recorded = recorded
            return passes, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few inputs and one pass, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "skewloci" / "__init__.py").is_file():
        print(f"perfbench: no skewloci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from inputs import defect_requests
    from workloads import WORKLOADS, Context, PassResult, load_digests

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup = []
    if not args.trace:
        setup = [probe("setup")["setup_s"] for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import skewloci
    from skewloci import cli

    if not Path(skewloci.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: skewloci was imported from {skewloci.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import jsonschema

    validator = jsonschema.Draft202012Validator(cli.load_schema())
    if not args.tiny:
        # first calls, imports and allocator growth happen here, untimed;
        # the warm-up inputs are drawn apart from every timed pass
        workload.run(Context(validator, None), PassResult(),
                     pass_inputs(workload, args.seed, -1, True), True)
    ctx = Context(validator, load_digests(DIGESTS, args.workload, args.seed))
    passes, layers = run_passes(workload, args.seed, ctx, args.seconds,
                                args.tiny, tracer)

    # ROADMAP item 4a, sent after the timed passes: these inputs fail at the
    # seed, and a timed op must not fail
    defects = PassResult()
    ctx.recorded = None
    for i, argv in enumerate(defect_requests(args.seed)):
        ctx.cli_op(defects, f"defect{i}", argv)
    defect_failed = defects.status.count("failed")

    times = [t for p in passes for t in p.times]
    status = [s for p in passes for s in p.status]
    attempted = len(status)
    failed = status.count("failed")
    refused = status.count("refused")
    incomplete = status.count("incomplete")
    reasons = {}
    for p in passes:
        for k, v in p.reasons.items():
            reasons[k] = reasons.get(k, 0) + v
    wall = [sum(p.times) for p in passes]
    beyond = sum(t > percentile(p.times, workload.tail) for p in passes for t in p.times)

    def per_pass(q):
        """A percentile of each pass's op times, averaged over the passes."""
        return statistics.fmean(percentile(p.times, q) for p in passes)

    if args.trace:
        per_layer = {
            name: (statistics.median(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        per_layer["trace.wall_s"] = (statistics.fmean(wall), "s")
        per_layer["outcome.fail_ratio"] = (failed / attempted, "ratio")
        per_layer["outcome.refused_ratio"] = (refused / attempted, "ratio")
        per_layer["outcome.incomplete_ratio"] = (incomplete / attempted, "ratio")
        per_layer["outcome.defect_fail_ratio"] = (
            defect_failed / len(defects.status), "ratio")
        head = probe("headroom", *(["--tiny"] if args.tiny else []))
        for key in ("c1_headroom", "c5_headroom", "c7_headroom"):
            per_layer[f"selftest.{key}"] = (head[key], "ratio")
        metrics = per_layer
    else:
        metrics = {
            "wall_s": (statistics.fmean(wall), "s"),
            "ops_per_s": (attempted / sum(times), "1/s"),
            "latency_p50_ms": (1000 * per_pass(50), "ms"),
            "latency_tail_ms": (1000 * per_pass(workload.tail), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(passes[0].status),
        "samples": {"wall_s": len(wall), "latency": attempted,
                    "setup_s": len(setup)},
        "tail_percentile": workload.tail,
        "samples_beyond_tail": beyond,
        "fail_ratio": failed / attempted,
        "refused_ratio": refused / attempted,
        "incomplete_ratio": incomplete / attempted,
        "failures": reasons,
        "defect_probes": {"sent": len(defects.status), "failed": defect_failed,
                          "reasons": defects.reasons},
        "digests_checked": sum(p.checked for p in passes),
        **environment(),
    }
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
