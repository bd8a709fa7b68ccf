"""Record the sha256 of every ok op's output, per workload and seed.

    python3 perfbench/record.py --seeds 0 1 2

Runs one untraced pass per workload and seed and merges the digests into
digests.json.  ``nets`` needs no table of its own: run.py takes its
digests from those of the three net workloads.  run.py then fails any op whose output no longer matches, so
record only from a commit whose reports are known good.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"


def main():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import jsonschema
    from skewloci import cli
    from workloads import WORKLOADS, Context, PassResult

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w for w in WORKLOADS if w != "nets"])
    args = parser.parse_args()

    validator = jsonschema.Draft202012Validator(cli.load_schema())
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            res = PassResult()
            workload.run(Context(validator, None), res, workload.build(seed, SRC))
            if res.wrong:
                sys.exit(f"{name} seed {seed}: {res.wrong} wrong answers; "
                         f"nothing recorded ({res.reasons})")
            table.setdefault(name, {})[str(seed)] = dict(sorted(res.digests.items()))
            print(f"{name} seed {seed}: {len(res.digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
