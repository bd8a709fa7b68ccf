"""Fast smoke test of the benchmark itself (about half a minute).

    python3 perfbench/smoke.py

Runs every workload run.py knows (those of BENCHMARK.json and the net
workloads that ``nets`` joins) on its tiny input set, untraced and traced,
and checks that the last line has exactly the keys correct, attempted,
failed and metrics, with every metric of BENCHMARK.json present under its
unit.  Then it copies BENCHMARK.json and this directory, without the
program, into a temporary directory inside the checkout and checks that
run.py exits non-zero there without printing a result.  Exits 1 on the
first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EMPTY = ROOT / ".bench_build" / "smoke-empty"


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec, workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return f"{where}: correct is not a boolean"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return f"{where}: attempted/failed are not counts"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m.get("unit") for k, m in result["metrics"].items()}
    if got != want:
        return f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return f"{where}: {name} has no numeric value"
    print(f"ok  {where}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    return None


def check_without_program():
    shutil.rmtree(EMPTY, ignore_errors=True)
    try:
        EMPTY.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", EMPTY)
        shutil.copytree(HERE, EMPTY / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(EMPTY, "--workload", "cli-light", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(EMPTY, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return "without the program: run.py did not fail cleanly"
    print("ok  without the program: exit", proc.returncode, flush=True)
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            problem = check_result(spec, name, trace)
            if problem:
                sys.exit(problem)
    problem = check_without_program()
    if problem:
        sys.exit(problem)
    print("smoke test passed")


if __name__ == "__main__":
    main()
