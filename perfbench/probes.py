"""Measurements made in a fresh, untraced interpreter; prints one JSON line.

    python3 perfbench/probes.py setup      # import skewloci, load the schema
    python3 perfbench/probes.py headroom   # selftest budgets 1, 5 and 7
    python3 perfbench/probes.py headroom --tiny

run.py starts these as child processes and waits for them.
"""

import json
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup():
    from skewloci import cli, cubic, fournets, nets  # noqa: F401

    cli.load_schema()
    return {"setup_s": time.perf_counter() - T0}


def headroom(tiny):
    """Share of each wall-clock budget left unused: 1 - elapsed / budget."""
    from skewloci import selftest
    from skewloci.cohomology import degree_formula
    from skewloci.fields import PrimeField
    from skewloci.nets import count_scroll_points

    # criterion 1: the best of three calls per pair, against 1 ms
    worst = 0.0
    for n, m, _ in selftest.DEGREE_EXAMPLES:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            degree_formula(n, m)
            best = min(best, time.perf_counter() - t0)
        worst = max(worst, best)
    out = {"c1_headroom": 1 - worst / 1e-3, "c5_headroom": 0.0, "c7_headroom": 0.0}
    if tiny:
        return out
    # criterion 5 times itself against 10 s; the call adds only its setup
    t0 = time.perf_counter()
    res = selftest.criterion_5()
    out["c5_headroom"] = 1 - (time.perf_counter() - t0) / 10.0
    out["c5_passed"] = res.passed
    # criterion 7: the slowest scan of its nets, against 60 s per net
    slowest = 0.0
    for q, seed in selftest.FIBERED_NETS:
        net = selftest.seeded_net(PrimeField(q), seed)
        t0 = time.perf_counter()
        count_scroll_points(net)
        slowest = max(slowest, time.perf_counter() - t0)
    out["c7_headroom"] = 1 - slowest / 60.0
    return out


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup()))
    else:
        print(json.dumps(headroom("--tiny" in sys.argv)))
