"""One command for every metric of every workload, untraced and traced.

    python3 perfbench/report.py [--seed 0] [--seconds 50] [--workloads ...]

By default it covers every workload run.py knows: the two that
BENCHMARK.json lists and the three net workloads that ``nets`` joins.  For
each workload it runs run.py twice in fresh processes, one after the
other: with ``--trace 0`` for the end-to-end metrics and with ``--trace 1``
for the per-layer metrics.  It prints each metric with its unit and sample
count, the outcome ratios, and the tracing overhead: the traced pass time
minus the untraced one.  Takes about two minutes per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(" ", 1)[1])
    return info, json.loads(lines[-1])


def samples(name, info):
    counts = info["samples"]
    if name == "wall_s":
        return counts["wall_s"]
    if name == "setup_s":
        return counts["setup_s"]
    if name == "peak_rss_mb":
        return 1
    return f"{counts['latency']} ops in {counts['wall_s']} passes"


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args()

    for workload in args.workloads:
        info, plain = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload}  seed {args.seed}  correct={plain['correct']}  "
              f"attempted={plain['attempted']}  failed={plain['failed']}  "
              f"passes={info['passes']}")
        print(f"   fail_ratio {info['fail_ratio']:.4f}  refused_ratio "
              f"{info['refused_ratio']:.4f}  incomplete_ratio "
              f"{info['incomplete_ratio']:.4f}  failures {info['failures']}  "
              f"digests checked {info['digests_checked']}")
        probes = info["defect_probes"]
        print(f"   ROADMAP 4a inputs (untimed): {probes['failed']} of "
              f"{probes['sent']} failed {probes['reasons']}")
        print(f"   python {info['python']}  numpy {info['numpy']}  nproc "
              f"{info['nproc']}  git {info['git_sha']}  source "
              f"{info['source_sha256'][:16]}")
        for name, m in plain["metrics"].items():
            note = ""
            if name == "latency_tail_ms":
                note = (f"  (p{info['tail_percentile']}, "
                        f"{info['samples_beyond_tail']} samples beyond)")
            print(f"   {name:18s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={samples(name, info)}{note}")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        share = overhead / plain["metrics"]["wall_s"]["value"]
        print(f"   tracing overhead   {overhead:14.6g} s      ({share:.1%} of wall_s)")
        for name, m in traced["metrics"].items():
            print(f"   {name:38s} {m['value']:14.6g} {m['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
