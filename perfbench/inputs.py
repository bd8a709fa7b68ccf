"""Seeded inputs for the benchmark workloads, built without the program.

Every input is a plain JSON-ready value in the README wire formats.  Nets
start from a fixed list of base nets (the seeded nets of
``skewloci.selftest.seeded_net`` and the corpus files) and are then moved by
a change of coordinates of P^5 drawn from the run seed and the pass index,
acting as A -> g^T A g on every generator.  The move keeps the geometry
(the Pfaffian cubic and the order of its points, the planes, whether the
companion construction is refused), so every pass of every seed sends new
bytes through the same mix of work, and no pass repeats an earlier pass's
nets.  Drawing the base nets themselves from the seed would make a
run's cost depend on which nets it drew: one companion net completes in
4 s, another is refused in 0.1 s.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]


def _rank_mod(rows, p):
    """Rank of an integer matrix over F_p (p=None: over Q)."""
    rows = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c] if p is None else pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                if p is not None:
                    rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


def random_invertible(rng, n, p, lo=None, hi=None):
    """A random n x n matrix invertible over F_p (p=None: over Q, small ints)."""
    while True:
        if p is None:
            M = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        else:
            M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod(M, p) == n:
            return M


def conjugate_pairs(pairs, g, p):
    """The 15 pair coefficients of g^T A g, where A is the skew form of pairs."""
    A = [[0] * 6 for _ in range(6)]
    for (i, j), c in zip(PAIRS, pairs):
        A[i][j] = c
        A[j][i] = -c
    out = []
    for i, j in PAIRS:
        v = sum(
            g[a][i] * A[a][b] * g[b][j] for a in range(6) for b in range(6)
            if A[a][b]
        )
        out.append(v % p if p is not None else v)
    return out


def seeded_net_pairs(q, seed):
    """The generators of selftest.seeded_net(F_q, seed) before normalization.

    Same rejection sampling: three uniform 15-vectors, redrawn until they
    are linearly independent.
    """
    rng = random.Random(seed)
    while True:
        triples = [[rng.randrange(q) for _ in range(15)] for _ in range(3)]
        if _rank_mod(triples, q) == 3:
            return triples


def first_pair_reach(triples):
    """The largest coordinate in the first nonzero pair of any generator."""
    return max(next(j for (i, j), c in zip(PAIRS, t) if c) for t in triples)


def coordinate_change(rng, q, k):
    """A random g in GL_6(F_q) whose first k+1 columns are e_0, ..., e_k.

    skewloci scales each generator so that its first nonzero pair
    coefficient is 1.  When that pair only involves coordinates 0..k,
    g^T A g keeps the coefficient, so the moved net has the same
    parameter plane and the same Pfaffian cubic, with its points in the
    same order; only the scroll in P^5 moves.
    """
    free = 5 - k
    tail = random_invertible(rng, free, q)
    g = [[int(i == j) for j in range(6)] for i in range(6)]
    for i in range(6):
        for j in range(k + 1, 6):
            g[i][j] = rng.randrange(q) if i <= k else tail[i - k - 1][j - k - 1]
    return g


def move_net(triples, q, rng):
    """The net's generators under a seeded change of coordinates of P^5."""
    g = coordinate_change(rng, q, first_pair_reach(triples))
    return [conjugate_pairs([int(c) for c in t], g, q) for t in triples]


def corpus_doc(src_dir: Path, name: str) -> dict:
    return json.loads((src_dir / "skewloci" / "corpus" / name).read_text())


def _scalar(rng, p):
    """One scalar in a README wire form: an integer or an "a/b" string.

    Denominators range over [1, 3p] for F_p, skipping multiples of p: the
    seed program escapes those as ZeroDivisionError (exit 1), and a timed
    op must not fail.  ``defect_requests`` sends such inputs on purpose.
    """
    a = rng.randint(-300, 300)
    if rng.random() < 0.5:
        return a
    if p is None:
        return f"{a}/{rng.randint(1, 303)}"
    b = p
    while b % p == 0:
        b = rng.randint(1, 3 * p)
    return f"{a}/{b}"


def _fraction_vector(pairs, d):
    """Integer pairs divided by d, written as "a/b" strings where needed."""
    return [str(Fraction(c, d)) for c in pairs]


# per pass: (command, field, count)
CLI_LIGHT_MIX = (
    ("pfaffian", "F101", 40),
    ("pfaffian", "Q", 40),
    ("classify", "F101", 40),
    ("classify", "Q", 40),
    ("pencil-random", "F101", 20),
    ("pencil-irrational", "Q", 10),
    ("pencil-block", "Q", 10),
    ("cohomology", None, 20),
    ("degree", None, 20),
)


def _irrational_pencil(rng):
    """Two generators over Q whose singular members are irrational.

    With A = [[0, X], [-X^T, 0]] and B = [[0, I], [-I, 0]] the binary
    Pfaffian of the pencil is +-det(lam X + mu I); X is the companion matrix
    of t^3 - k for a k that is not a cube, so that cubic is irreducible and
    the program refuses (exit 3).  A seeded integer g conjugates both.
    Random Q pencils refuse too, but their rational root search, whose cost
    follows the divisor counts of the cubic's coefficients, takes about
    40 ms on most draws and about 10 s on one in a few hundred.
    """
    k = rng.choice((2, 3, 5, 6, 7, 10))
    X = [[0, 0, k], [1, 0, 0], [0, 1, 0]]
    A = [X[i][j - 3] if i < 3 <= j else 0 for i, j in PAIRS]
    B = [int(j == i + 3) for i, j in PAIRS]
    g = random_invertible(rng, 6, None, -2, 2)
    return [_fraction_vector(conjugate_pairs(m, g, None), rng.randint(1, 9))
            for m in (A, B)]


def cli_light_requests(seed, src_dir: Path, pass_index=0):
    """One cli-light pass: argv lists for cli.main, shuffled by the seed."""
    rng = random.Random(f"cli-light:{seed}:{pass_index}")
    block = corpus_doc(src_dir, "block_pencil.json")["generators"]
    out = []
    for kind, field, count in CLI_LIGHT_MIX:
        p = int(field[1:]) if field and field.startswith("F") else None
        for _ in range(count):
            if kind in ("pfaffian", "classify"):
                doc = {"field": field, "pairs": [_scalar(rng, p) for _ in range(15)]}
                head = ["pfaffian"] if kind == "pfaffian" else ["complex", "classify"]
                out.append(head + [json.dumps(doc)])
            elif kind == "pencil-random":
                gens = [[_scalar(rng, p) for _ in range(15)] for _ in range(2)]
                out.append(["pencil", "analyze",
                            json.dumps({"field": field, "generators": gens})])
            elif kind == "pencil-irrational":
                out.append(["pencil", "analyze", json.dumps(
                    {"field": "Q", "generators": _irrational_pencil(rng)})])
            elif kind == "pencil-block":
                # g^T B g for an integer g keeps every singular member rational
                g = random_invertible(rng, 6, None, -2, 2)
                gens = [
                    _fraction_vector(conjugate_pairs(b, g, None), rng.randint(1, 9))
                    for b in block
                ]
                out.append(["pencil", "analyze",
                            json.dumps({"field": "Q", "generators": gens})])
            elif kind == "cohomology":
                n = rng.randint(2, 10)
                out.append(["cohomology", "table", "--n", str(n),
                            "--m", str(rng.randint(2, n))])
            else:
                n = rng.randint(2, 40)
                out.append(["degree", "--n", str(n), "--m", str(rng.randint(2, n))])
    rng.shuffle(out)
    return out


DEFECT_PROBES = 6


def defect_requests(seed):
    """Requests that hit ROADMAP item 4a: an "a/b" scalar with p dividing b.

    At the seed each exits 1 with a raw ZeroDivisionError.  run.py sends
    them after the timed passes and reports how they end, apart from the
    timed ops.
    """
    rng = random.Random(f"defect:{seed}")
    out = []
    for i in range(DEFECT_PROBES):
        pairs = [_scalar(rng, 101) for _ in range(15)]
        pairs[rng.randrange(15)] = f"{rng.randint(1, 300)}/{101 * rng.randint(1, 3)}"
        head = ["pfaffian"] if i % 2 == 0 else ["complex", "classify"]
        out.append(head + [json.dumps({"field": "F101", "pairs": pairs})])
    return out


# one net per base and pass: the F7, F11 and F101 scans, the F11 corpus net
# and the type-2 corpus net.  Five nets of distinct cost keep the median
# latency on one net's time.
NET_ANALYZE_BASE = (
    ("seeded", 7, 0), ("seeded", 11, 0), ("seeded", 101, 0),
    ("corpus", "net_f11.json"), ("corpus", "net_type2.json"),
)

# the first net of selftest criterion 9; every pass is one session on it
SCROLL_BASE = (("seeded", 101, 1),)

# the README's net_f7.json and seeded F11 and F23 nets are refused, each in
# 0.05-0.3 s depending on the move; criterion 11's net (F23, seed 8)
# completes in about 4.5 s and runs the group law and the cross-checks.
# Three refusals per pass put the median latency inside a pool of
# refusals instead of on one of them.
COMPANION_BASE = (
    ("corpus", "net_f7.json"), ("seeded", 11, 1), ("seeded", 23, 1),
    ("seeded", 23, 8),
)


def _base_net(entry, src_dir):
    if entry[0] == "seeded":
        _, q, s = entry
        return q, seeded_net_pairs(q, s)
    doc = corpus_doc(src_dir, entry[1])
    return int(doc["field"][1:]), doc["generators"]


def moved_nets(base, workload, seed, src_dir: Path, pass_index=0):
    """Net input documents: each base net under a seeded change of P^5."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    docs = []
    for entry in base:
        q, triples = _base_net(entry, src_dir)
        docs.append({"field": f"F{q}", "generators": move_net(triples, q, rng)})
    return docs
