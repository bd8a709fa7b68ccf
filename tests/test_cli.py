import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewloci import __version__, cli, polys, selftest
from skewloci.cli import load_schema, main
from skewloci.errors import PreconditionError
from skewloci.fields import (
    PRIME_BOUND,
    PrimeField,
    extend_field,
    field_from_wire,
    from_wire,
    identity_embedding,
)
from skewloci.linalg import PAIRS, det
from skewloci.nets import Net

SCHEMA = load_schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def corpus_path(name):
    return str(resources.files("skewloci") / "corpus" / name)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_report(out):
    report = json.loads(out)
    errors = list(VALIDATOR.iter_errors(report))
    assert not errors, errors[0].message
    return report


def test_degree_example(capsys):
    code, out, _ = run_cli(capsys, "degree", "--n", "5", "--m", "3")
    assert code == 0
    report = check_report(out)
    assert report["result"] == {"degree": 6}
    assert report["command"] == "degree"
    assert report["input"] == {"n": 5, "m": 3}


def test_reports_are_byte_identical(capsys):
    args = ("net", "analyze", corpus_path("net_f7.json"))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pfaffian_inline_matrix(capsys):
    doc = json.dumps({
        "field": "F101",
        "matrix": [
            [0, 3, 0, 0],
            [-3, 0, 0, 0],
            [0, 0, 0, 5],
            [0, 0, -5, 0],
        ],
    })
    code, out, _ = run_cli(capsys, "pfaffian", doc)
    assert code == 0
    report = check_report(out)
    assert report["result"] == {"order": 4, "pfaffian": 15, "rank": 4}
    assert report["field"] == "F101"


def test_pfaffian_rational_pairs(capsys):
    vec = ["1/2"] + [0] * 8 + [1, 0, 0, 0, 0, 3]
    doc = json.dumps({"field": "QQ", "pairs": vec})
    code, out, _ = run_cli(capsys, "pfaffian", doc)
    assert code == 0
    report = check_report(out)
    # Pf = p01 p23 p45 - ... = 1/2 * 1 * 3 on a block form
    assert report["result"]["pfaffian"] == "3/2"
    assert report["result"]["order"] == 6
    assert report["field"] == "Q"


def test_classify_rank_four(capsys):
    vec = [0] * 15
    vec[0] = 1
    vec[9] = 1
    doc = json.dumps({"field": "F7", "pairs": vec})
    code, out, _ = run_cli(capsys, "complex", "classify", doc)
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["kind"] == "special-first-type"
    assert res["rank"] == 4
    assert res["pfaffian"] == 0
    assert res["singular_space"]["proj_dim"] == 1
    assert res["singular_space"]["basis"] == [
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]


# a rank-6 form over F101 and Q, and forms with Pf = 0: rank 4, rank 2, zero
GENERAL_PAIRS = [1, 2, 0, 3, "1/2", 0, 5, 7, 1, 0, 4, 0, 2, 9, 3]
DEGENERATE_PAIRS = {
    4: [1, 0, 0, 0, 0, 0, 0, 0, 0, "-3/4", 0, 0, 0, 0, 0],
    2: [1] + [0] * 14,
    0: [0] * 15,
}


@pytest.mark.parametrize("field", ["F101", "QQ"])
def test_a_nonzero_pfaffian_is_full_rank_without_elimination(capsys, monkeypatch, field):
    """det = Pf^2: pfaffian reports rank 6 and complex classify the general
    kind with an empty singular space, and neither eliminates."""
    from skewloci import linalg, projective

    def refuse(*args):
        raise AssertionError("eliminated a form with a nonzero Pfaffian")

    monkeypatch.setattr(linalg, "rank", refuse)
    monkeypatch.setattr(projective.Subspace, "from_kernel_of", classmethod(refuse))
    doc = json.dumps({"field": field, "pairs": GENERAL_PAIRS})
    code, out, err = run_cli(capsys, "pfaffian", doc)
    assert code == 0, err
    result = check_report(out)["result"]
    assert result["rank"] == 6 and result["pfaffian"] not in (0, "0")
    pf = result["pfaffian"]
    code, out, err = run_cli(capsys, "complex", "classify", doc)
    assert code == 0, err
    assert check_report(out)["result"] == {
        "kind": "general", "pfaffian": pf, "rank": 6,
        "singular_space": {"basis": [], "proj_dim": -1},
    }


@pytest.mark.parametrize("field", ["F101", "QQ"])
@pytest.mark.parametrize("rank", [4, 2, 0])
def test_a_zero_pfaffian_still_eliminates(capsys, field, rank):
    """Pf = 0 reads the rank and the singular space off the kernel, as before."""
    zero = 0 if field == "F101" else "0"
    doc = json.dumps({"field": field, "pairs": DEGENERATE_PAIRS[rank]})
    code, out, err = run_cli(capsys, "pfaffian", doc)
    assert code == 0, err
    assert check_report(out)["result"] == {"order": 6, "pfaffian": zero, "rank": rank}
    code, out, err = run_cli(capsys, "complex", "classify", doc)
    if rank == 0:
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "message": "zero form does not define a complex", "type": "DegenerateInputError"}
        return
    assert code == 0, err
    result = check_report(out)["result"]
    kernel = [4, 5] if rank == 4 else [2, 3, 4, 5]
    basis = [[1 if c == k else 0 for c in range(6)] for k in kernel]
    if field == "QQ":
        basis = [[str(x) for x in row] for row in basis]
    assert result == {
        "kind": "special-first-type" if rank == 4 else "special-second-type",
        "pfaffian": zero, "rank": rank,
        "singular_space": {"basis": basis, "proj_dim": len(kernel) - 1},
    }


def test_pencil_block_corpus(capsys):
    """The shipped block pencil lands in the pairwise skew spanning case."""
    code, out, _ = run_cli(capsys, "pencil", "analyze",
                           corpus_path("block_pencil.json"))
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["verdict"] == "expected-dim-1"
    assert res["configuration"]["case"] == 1
    assert res["configuration"]["span_dim"] == 5
    assert res["configuration"]["pairwise_meets"] == [False, False, False]
    assert len(res["members"]) == 3
    assert all(m["multiplicity"] == 1 for m in res["members"])
    got = {tuple(tuple(row) for row in l["basis"]) for l in res["lines"]}
    e = [[0] * 6 for _ in range(6)]
    for i in range(6):
        e[i][i] = 1
    expect = {
        (tuple(e[0]), tuple(e[1])),
        (tuple(e[2]), tuple(e[3])),
        (tuple(e[4]), tuple(e[5])),
    }
    assert got == expect


def test_net_analyze_small_field(capsys):
    code, out, _ = run_cli(capsys, "net", "analyze", corpus_path("net_f7.json"))
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["type"]["kind"] == "general"
    assert res["cubic"] is not None
    assert res["count"] is not None
    assert res["count"]["fibered"] is True
    assert res["count"]["x_count"] == 8 * res["count"]["c_count"]
    assert res["probe"] is None


def test_net_analyze_large_field_sections(capsys):
    code, out, _ = run_cli(capsys, "net", "analyze",
                           corpus_path("net_f101.json"), "--trials", "5")
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["count"] is None
    assert any("counting" in n for n in res["notes"])
    assert res["probe"] is not None
    assert res["probe"]["trials"] == 5
    assert res["probe"]["max_generic"] <= 6
    assert res["directrix"] is not None
    assert len(res["directrix"]["planes"]) == 2


def test_net_analyze_rank_two_generator(capsys):
    code, out, _ = run_cli(capsys, "net", "analyze",
                           corpus_path("net_type2.json"))
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["type"]["kind"] == "contains-second-type"
    assert res["type"]["witness_kind"] == "generator"
    assert res["directrix"] is None
    assert any("rank-2" in n for n in res["notes"])


@pytest.mark.parametrize("field, count_note", [
    ("F7", "exhaustive count skipped: the net's Pfaffian vanishes identically"),
    ("F101", "exhaustive counting is limited to prime fields up to 11"),
])
def test_net_analyze_vanishing_pfaffian(capsys, field, count_note):
    # every generator is zero on the pairs (0, j): e_0 lies in the kernel of
    # every member, so the Pfaffian vanishes and there is no base cubic
    rng = random.Random(7)
    generators = [[0] * 5 + [rng.randrange(1, 7) for _ in range(10)] for _ in range(3)]
    doc = json.dumps({"field": field, "generators": generators, "kind": "net"})
    code, out, err = run_cli(capsys, "net", "analyze", doc)
    assert (code, err) == (0, "")
    res = check_report(out)["result"]
    assert res["cubic"] is None and res["count"] is None
    assert res["notes"][:2] == ["the restricted Pfaffian vanishes; no base cubic", count_note]


def _conjugate_pair_net(p, seed):
    """Generators of a net over F_p whose plane meets the rank-2 locus in a
    conjugate pair: the traces of w and beta w for the Pluecker vector w of
    a line over F_{p^2} (beta generates F_{p^2}), a random third complex,
    and a random change of basis of the three."""
    F = PrimeField(p)
    K, _ = extend_field(F, 2)
    rng = random.Random(seed)
    while True:
        u, v = ([K.random(rng) for _ in range(6)] for _ in range(2))
        w = [u[i] * v[j] - u[j] * v[i] for i, j in PAIRS]
        traces = [[(c * x + (c * x) ** p).v for x in w] for c in (K.one, K.gen())]
        assert all(x[1] == 0 for t in traces for x in t)
        base = [[x[0] for x in t] for t in traces] + [[rng.randrange(p) for _ in PAIRS]]
        mix = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        gens = [[sum(a * g[k] for a, g in zip(row, base)) % p for k in range(15)]
                for row in mix]
        try:
            net = Net.from_pair_vectors(F, gens)
        except PreconditionError:  # dependent generators
            continue
        if all(g.rank() > 2 for g in net.generators):  # no generator witness
            return gens


def _explicit_root_zero(forms_H, f, seed):
    """The resultant route's factor check before the residue field: the
    orbit's first root is built for every factor of the eliminant."""
    field = f.field
    if f.degree == 1:
        return polys._check_candidate(
            forms_H, field.one, -f.c[0] / f.c[1], identity_embedding(field), seed)
    r, emb = polys._orbit_root(f, seed)
    return polys._check_candidate(forms_H, emb(field.one), r, emb, seed)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_conjugate_witness_reports_match_the_explicit_root_route(capsys, monkeypatch, p):
    # the witness lies over F_{p^2}: the residue field decides its orbit,
    # and the witness is built as the explicit-root route builds it
    decided = []

    def spy(forms_H, f, seed, real=polys._factor_zero):
        found = real(forms_H, f, seed)
        decided.append((f.field, f.degree, found[0]))
        return found

    for seed in range(4):
        doc = json.dumps({"field": f"F{p}", "generators": _conjugate_pair_net(p, seed)})
        with monkeypatch.context() as mp:
            mp.setattr(polys, "_factor_zero", spy)
            fast = run_cli(capsys, "net", "analyze", doc)
        with monkeypatch.context() as mp:
            mp.setattr(polys, "_factor_zero", _explicit_root_zero)
            slow = run_cli(capsys, "net", "analyze", doc)
        assert fast == slow
        kind = check_report(fast[1])["result"]["type"]
        assert (kind["kind"], kind["witness_field"]) == ("contains-second-type", f"F{p}^2")
    # over F3 and F5 a net can leave no regular rational direction, and then
    # the search moves to F_{p^2}, where its witness root is rational
    assert (PrimeField(p), 2, True) in decided


def test_fournets_complete(capsys):
    net = selftest.seeded_net(PrimeField(23), 8)
    doc = json.dumps({
        "field": "F23",
        "generators": [[x.v for x in g.coeffs()] for g in net.generators],
    })
    code, out, _ = run_cli(capsys, "net", "fournets", doc, "--trials", "20")
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["complete"] is True
    assert res["torsion_classes_found"] == 4
    assert len(res["companions"]) == 4
    assert all(c["forward_checked"] == 20 for c in res["cross"])
    assert all(c["forward_ok"] and c["backward_ok"] for c in res["cross"])


def test_cohomology_conflict_grid(capsys):
    """The three-lines table renders its one disagreement in place."""
    code, out, _ = run_cli(capsys, "cohomology", "table", "--n", "5", "--m", "2")
    assert code == 0
    report = check_report(out)
    res = report["result"]
    assert res["degree"] == 3
    assert res["conflicts"] == [
        {"i": 3, "twist": -2, "predicted": 1, "oracle": 0}
    ]
    assert res["sv"]["holds"] is True
    grid = "\n".join(res["rendered"])
    assert "1!0" in grid
    assert "conflict at i=3: predicted 1, oracle 0" in grid


def test_cohomology_window_flags(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "table", "--n", "5", "--m", "3",
                           "--from", "-1", "--to", "1")
    assert code == 0
    report = check_report(out)
    assert report["result"]["window"] == [-1, 1]
    assert len(report["result"]["rows"]) == 3


def test_degree_and_window_caps_refuse_oversized_requests(capsys):
    # uncapped, the degree for n = 16000 (over 4300 digits) takes tens of seconds
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "degree", "--n", "16000", "--m", "8000")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert "16000 is greater than the maximum of 150" in err
    for flags in (("--n", "151", "--m", "2"), ("--n", "5", "--m", "151"),
                  ("--n", "5", "--m", "2", "--from", "-151", "--to", "0"),
                  ("--n", "5", "--m", "2", "--from", "0", "--to", "151")):
        code, out, err = run_cli(capsys, "cohomology", "table", *flags)
        assert (code, out) == (2, ""), flags
    code, out, _ = run_cli(capsys, "degree", "--n", "150", "--m", "75")
    assert code == 0
    check_report(out)


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "degree", "--n", "5", "--m", "3",
                           "--seed", "-1")
    assert code == 2
    assert "config" in err

    bad = json.dumps({"field": "F7", "generators": [[0] * 14, [0] * 15]})
    code, _, err = run_cli(capsys, "pencil", "analyze", bad)
    assert code == 2

    doc = json.dumps({"matrix": [[0, 1], [-1, 0]]})
    code, _, err = run_cli(capsys, "pfaffian", doc)
    assert code == 2
    assert "field" in err

    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2


def test_precondition_errors(capsys):
    doc = json.dumps({
        "field": "F7",
        "matrix": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    })
    code, _, err = run_cli(capsys, "pfaffian", doc)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "PreconditionError"

    doc = json.dumps({"field": "F6", "matrix": [[0, 1], [-1, 0]]})
    code, _, err = run_cli(capsys, "pfaffian", doc)
    assert code == 3
    assert "not prime" in json.loads(err)["error"]["message"]

    # p divides the denominator of a scalar
    doc = json.dumps({"field": "F7", "pairs": ["1/7"] + [0] * 14})
    code, _, err = run_cli(capsys, "pfaffian", doc)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "PreconditionError"

    doc = json.dumps({"field": f"F{PRIME_BOUND}", "matrix": [[0, 1], [-1, 0]]})
    code, _, err = run_cli(capsys, "pfaffian", doc)
    assert code == 3
    assert "limited" in json.loads(err)["error"]["message"]


def test_rational_results_over_the_int_string_limit_are_refused(capsys):
    # the Pfaffian of fifteen 1500-digit pairs has about 4500 digits
    pairs = [10**1499 + 7 * i for i in range(15)]
    code, out, err = run_cli(capsys, "pfaffian", json.dumps({"field": "Q", "pairs": pairs}))
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "PreconditionError"
    assert f"{sys.get_int_max_str_digits()} digits" in error["message"]


def test_fraction_scalars_reduce_before_the_characteristic_check(capsys):
    vec = ["14/7"] + [0] * 8 + [1, 0, 0, 0, 0, 1]
    code, out, _ = run_cli(capsys, "pfaffian", json.dumps({"field": "F7", "pairs": vec}))
    assert code == 0
    assert check_report(out)["result"]["pfaffian"] == 2


def test_large_prime_field_answers(capsys):
    vec = ["1/7"] + [0] * 8 + [1, 0, 0, 0, 0, 3]
    doc = json.dumps({"field": "F2305843009213693951", "pairs": vec})
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "pfaffian", doc)
    assert time.perf_counter() - t0 < 5
    assert code == 0
    report = check_report(out)
    p = 2**61 - 1
    assert report["result"]["pfaffian"] == 3 * pow(7, -1, p) % p


@pytest.mark.parametrize("field", ["F101", "Q"])
@pytest.mark.parametrize("order", [18, 40])
def test_dense_pfaffians_of_large_order_answer(capsys, field, order):
    """The Pfaffian costs a cube of the order, so dense requests far past
    the (n - 1)!! matchings of the expansion answer, exactly."""
    rng = random.Random(order)
    upper = {(i, j): rng.randint(-9, 9) for i in range(order) for j in range(i + 1, order)}
    matrix = [[upper[i, j] if i < j else -upper[j, i] if j < i else 0 for j in range(order)]
              for i in range(order)]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "pfaffian", json.dumps({"field": field, "matrix": matrix}))
    assert time.perf_counter() - t0 < 2
    assert code == 0, err
    result = check_report(out)["result"]
    F = field_from_wire(field)
    pf = from_wire(F, result["pfaffian"])
    assert result["order"] == order
    assert pf * pf == det(F, [[F(x) for x in row] for row in matrix])


def test_json_out_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "degree", "--n", "4", "--m", "3",
                           "--json-out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_selftest_cli_reports_each_criterion(capsys, monkeypatch):
    def ok():
        return selftest.CriterionResult(1, "stub-pass", True, "ok")

    def bad():
        return selftest.CriterionResult(2, "stub-fail", False, "broken")

    monkeypatch.setattr(selftest, "CRITERIA", (ok,))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    report = check_report(out)
    assert report["result"]["all_passed"] is True
    assert "stub-pass" in err

    monkeypatch.setattr(selftest, "CRITERIA", (ok, bad))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 4
    report = check_report(out)
    assert report["result"]["all_passed"] is False
    assert report["result"]["criteria"][1]["passed"] is False


def test_selftest_backs_the_acceptance_suite():
    """The CLI selftest and the acceptance tests share the criterion set."""
    assert selftest.CRITERIA == (
        selftest.criterion_1, selftest.criterion_2, selftest.criterion_3,
        selftest.criterion_4, selftest.criterion_5, selftest.criterion_6,
        selftest.criterion_7, selftest.criterion_8, selftest.criterion_9,
        selftest.criterion_10, selftest.criterion_11, selftest.criterion_12,
    )
    assert len(selftest.CRITERIA) == 12


def test_corpus_documents_validate():
    names = [
        "block_pencil.json", "net_f7.json", "net_f11.json", "net_f101.json",
        "net_type2.json", "anchor_cubic.json",
    ]
    defs = {"pencil": "pencilInput", "net": "netInput", "cubic": "cubicInput"}
    for name in names:
        doc = json.loads(
            (resources.files("skewloci") / "corpus" / name).read_text()
        )
        sub = dict(SCHEMA["$defs"][defs[doc["kind"]]])
        sub["$defs"] = SCHEMA["$defs"]
        jsonschema.validate(doc, sub)


def test_fournets_refuses_conjugate_directrix_planes(capsys):
    """Over F7 the corpus net's two unisecant planes are not rational."""
    code, _, err = run_cli(capsys, "net", "fournets", corpus_path("net_f7.json"))
    assert code == 3
    assert json.loads(err)["error"]["message"] == (
        "both unisecant planes must be defined over the base field"
    )


# sha256 of stdout: net_f101.json completes; net_f11.json ends incomplete,
# its "irrational-doubles" log coming from gamma_k's refusals
_FOURNETS_DIGESTS = {
    "net_f101.json": "2a98a67518b53ff032ee62cff33793219616785a4da22155a59f52889b9088ea",
    "net_f11.json": "bf2dea076791551c53cf1492252125d2e25fe7307632b829b1317177de4ce8ba",
}


@pytest.mark.parametrize("name", sorted(_FOURNETS_DIGESTS))
def test_fournets_corpus_reports_keep_their_bytes(capsys, name):
    code, out, _ = run_cli(capsys, "net", "fournets", corpus_path(name))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _FOURNETS_DIGESTS[name]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(capsys, monkeypatch):
    """Every command-line example in the README exits 0; the acceptance
    suite covers selftest."""
    monkeypatch.chdir(README.parent)
    lines = [
        line for line in README.read_text().splitlines()
        if line.startswith("skewloci ") and line != "skewloci selftest"
    ]
    assert len(lines) >= 8
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        check_report(out)


_FUZZ_FIELDS = (
    "F3", "F5", "F7", "F101", "F2", "F1", "F4", "F6", "F9", "F15", "F7^2", "Q", "QQ",
    "F2305843009213693951", f"F{PRIME_BOUND}",
)


@st.composite
def _fuzz_request(draw):
    field = draw(st.sampled_from(_FUZZ_FIELDS))
    p = int(field[1:].split("^")[0]) if field.startswith("F") else 7
    ints = st.integers(-(10**20), 10**20)
    dens = st.integers(1, 5).map(lambda k: k * p) | st.integers(1, 10**6)
    scalar = st.one_of(
        ints,
        st.builds(lambda a, b: f"{a}/{b}", ints, dens),
        st.lists(ints, min_size=1, max_size=3),
    )
    if draw(st.booleans()):
        doc = {"field": field, "pairs": draw(st.lists(scalar, min_size=15, max_size=15))}
    else:
        n = draw(st.integers(1, 6))
        matrix = draw(st.lists(st.lists(scalar, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        doc = {"field": field, "matrix": matrix}
    command = draw(st.sampled_from((["pfaffian"], ["complex", "classify"])))
    return command + [json.dumps(doc)]


@settings(max_examples=120, deadline=None, database=None)
@given(_fuzz_request())
def test_fuzzed_scalar_inputs_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        check_report(out.getvalue())


@st.composite
def _fuzz_generators(draw):
    field = draw(st.sampled_from(("F3", "F5", "F7")))
    p = int(field[1:])
    command, count = draw(st.sampled_from(
        ((["pencil", "analyze"], 2), (["net", "analyze"], 3))))
    ints = st.integers(-(10**6), 10**6)
    scalar = st.one_of(
        ints,
        st.builds(lambda a, k: f"{a}/{k * p}", ints, st.integers(1, 5)),
        st.builds(lambda a, b: f"{a}/{b}", ints, st.integers(1, 50)),
    )
    non_scalar = st.sampled_from(([1, 2], [], None, "x", 1.5, True))
    gens = []
    for _ in range(count + draw(st.sampled_from((0,) * 8 + (-1, 1)))):
        shape = draw(st.sampled_from(
            ("ints",) * 6 + ("fractions",) * 2 + ("non-scalar", "zero", "short")))
        if shape == "zero":
            gens.append([0] * 15)
        elif shape == "short":
            gens.append(draw(st.lists(ints, max_size=16).filter(lambda g: len(g) != 15)))
        else:
            g = draw(st.lists(ints if shape == "ints" else scalar, min_size=15, max_size=15))
            if shape == "non-scalar":
                g[draw(st.integers(0, 14))] = draw(non_scalar)
            gens.append(g)
    if len(gens) >= 2 and draw(st.integers(0, 3)) == 0:
        # the last generator becomes a multiple of one generator or a sum of two
        i, j = draw(st.integers(0, len(gens) - 2)), draw(st.integers(0, len(gens) - 2))
        if all(isinstance(x, int) for x in gens[i] + gens[j]) and len(gens[i]) == len(gens[j]):
            c = draw(st.integers(1, p - 1))
            gens[-1] = [c * x + (y if i != j else 0) for x, y in zip(gens[i], gens[j])]
    return command + [json.dumps({"field": field, "generators": gens}), "--trials", "0"]


@settings(max_examples=200, deadline=None, database=None)
@given(_fuzz_generators())
def test_fuzzed_generator_inputs_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code == 0:
        check_report(out.getvalue())


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_FOURNETS_DEFECTS = (
    "count", "length", "non-scalar", "fraction", "zero", "dependent",
    "no-generators", "no-field", "bad-field", "not-a-list",
)


@st.composite
def _fuzz_fournets(draw):
    # every document carries at least one defect, so none reaches the
    # companion construction
    p = draw(st.sampled_from((3, 5, 7)))
    ints = st.integers(-(10**6), 10**6)
    gens = [draw(st.lists(ints, min_size=15, max_size=15)) for _ in range(3)]
    doc = {"field": f"F{p}", "generators": gens}
    for defect in draw(st.sets(st.sampled_from(_FOURNETS_DEFECTS), min_size=1, max_size=3)):
        i = draw(st.integers(0, 2))
        if defect == "count":
            doc["generators"] = gens[:draw(st.sampled_from((0, 1, 2)))] + (
                [gens[0]] * draw(st.integers(1, 2)) if draw(st.booleans()) else [])
        elif defect == "length":
            gens[i] = draw(st.lists(ints, max_size=20).filter(lambda g: len(g) != 15))
        elif defect == "non-scalar":
            if len(gens[i]) == 15:
                gens[i][draw(st.integers(0, 14))] = draw(
                    st.sampled_from(([1, 2], [], None, "x", 1.5, True, {"a": 1})))
        elif defect == "fraction":
            if len(gens[i]) == 15:
                # coprime to p, so the reduced denominator keeps the factor p
                num = p * draw(ints) + 1
                gens[i][draw(st.integers(0, 14))] = f"{num}/{p * draw(st.integers(1, 5))}"
        elif defect == "zero":
            gens[i] = [0] * 15
        elif defect == "dependent":
            c = draw(st.integers(1, p - 1))
            # an earlier non-scalar defect may have put None or a dict there
            gens[2] = [c * x if type(x) is int else x for x in gens[0]]
        elif defect == "no-generators":
            doc.pop("generators")
        elif defect == "no-field":
            doc.pop("field")
        elif defect == "bad-field":
            doc["field"] = draw(st.sampled_from(("F2", "F4", "F1", "Q7", "F7^2", "", 7)))
        else:
            doc["generators"] = draw(st.sampled_from(({"0": gens[0]}, "gens", 3, None)))
    return ["net", "fournets", json.dumps(doc), "--trials", "1"]


@settings(max_examples=150, deadline=None, database=None)
@given(_fuzz_fournets())
def test_fuzzed_fournets_inputs_exit_with_a_documented_code(argv):
    code, out, err = _run_quietly(argv)
    assert code in (2, 3, 4), (argv, err)


# accepted values stay small, because en_table's cost grows with n and the
# window; the others lie past the caps of n, m, --from and --to (150)
_CAPPED = st.one_of(st.integers(-3, 14), st.integers(151, 10**30))
_TWIST = st.one_of(st.integers(-20, 20), st.integers(151, 10**30),
                   st.integers(-10**30, -151))


@st.composite
def _fuzz_cohomology(draw):
    command = draw(st.sampled_from(("cohomology-table", "degree")))
    if command == "degree":
        argv, flags = ["degree"], (("--n", _CAPPED), ("--m", _CAPPED))
    else:
        argv = ["cohomology", "table"]
        flags = (("--n", _CAPPED), ("--m", _CAPPED), ("--from", _TWIST), ("--to", _TWIST))
    for flag, value in flags:
        shape = draw(st.sampled_from(("int",) * 4 + ("missing", "non-int")))
        if shape == "int":
            argv += [flag, str(draw(value))]
        elif shape == "non-int":
            argv += [flag, draw(st.sampled_from(("x", "1.5", "", "3/2", "1e3")))]
    return argv


@settings(max_examples=150, deadline=None, database=None)
@example(["degree", "--n", "16000", "--m", "8000"])
@given(_fuzz_cohomology())
def test_fuzzed_cohomology_inputs_exit_with_a_documented_code(argv):
    code, out, err = _run_quietly(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 0:
        check_report(out)


def test_command_table_is_the_schema_command_set():
    assert list(cli._COMMANDS) == SCHEMA["$defs"]["commandName"]["enum"]
    inputs = {c.input_def for c in cli._COMMANDS.values()} - {None}
    assert inputs <= set(SCHEMA["$defs"])


_PF_F7 = json.dumps({"field": "F7", "pairs": [1] + [0] * 8 + [1, 0, 0, 0, 0, 1]})
_MIXED = (
    ["no-such-command"],                                          # argparse, exit 2
    ["degree", "--n", "5", "--m", "3", "--seed", "-1"],           # schema, exit 2
    ["pfaffian", json.dumps({"field": "F7", "matrix": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})],
    ["degree", "--n", "5", "--m", "3"],
    ["complex", "classify", _PF_F7],
    ["net", "analyze", "--help"],
)


def test_requests_answer_alike_in_any_order():
    """The parser and validators built once hold no state between requests."""
    forward = [_run_quietly(argv) for argv in _MIXED]
    backward = [_run_quietly(argv) for argv in reversed(_MIXED)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 2, 3, 0, 0, 0]
    assert forward[5][1].startswith("usage: skewloci net analyze")


def test_parser_and_validators_are_built_once(monkeypatch):
    parsers, compiled, validators = [], [], []

    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.prog == "skewloci":  # the subparsers are "skewloci <group>"
            parsers.append(self)

    real_compile = cli._compile

    def counting_compile(schema):
        compiled.append(json.dumps(schema, sort_keys=True))
        return real_compile(schema)

    real_validator = jsonschema.Draft202012Validator

    def counting_validator(schema, *args, **kwargs):
        validators.append(json.dumps(schema, sort_keys=True))
        return real_validator(schema, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_compile", counting_compile)
    monkeypatch.setattr(jsonschema, "Draft202012Validator", counting_validator)
    cached = (cli.build_parser, cli._predicate, cli._validator)
    for f in cached:
        f.cache_clear()
    try:
        for k in range(20):
            _run_quietly(_MIXED[k % len(_MIXED)])
    finally:
        for f in cached:
            f.cache_clear()
    assert len(parsers) == 1
    # runConfig and pfaffianInput each compile once; only runConfig refuses
    # (--seed -1), so only its jsonschema validator is built, once
    defs = {name: json.dumps(cli._definition(name), sort_keys=True)
            for name in ("runConfig", "pfaffianInput")}
    assert [compiled.count(d) for d in defs.values()] == [1, 1]
    assert validators == [defs["runConfig"]]


def test_a_valid_request_leaves_jsonschema_unimported():
    src = Path(cli.__file__).parents[1]
    code = (
        "import contextlib, io, sys\n"
        "from skewloci import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'jsonschema' in sys.modules)\n"
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
        )

    valid = run("degree", "--n", "5", "--m", "3")
    assert (valid.stdout.split(), valid.stderr) == (["0", "False"], "")
    refused = run("degree", "--n", "5", "--m", "3", "--seed", "-1")
    assert refused.stdout.split() == ["2", "True"]
    assert refused.stderr == "skewloci: config: seed: -1 is less than the minimum of 0\n"


@functools.cache
def _defs_validator(name):
    """The definition validated through $defs: the oracle of cli._validator."""
    defs = SCHEMA["$defs"]
    return jsonschema.Draft202012Validator({**defs[name], "$defs": defs})


def _messages(validator, doc):
    """What cli._validate_or_messages prints, from another validator."""
    return [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(validator.iter_errors(doc), key=str)
    ]


# the definitions main validates against
_VALIDATED = sorted({"runConfig"} | {c.input_def for c in cli._COMMANDS.values() if c.input_def})
_KEYS = sorted({k for d in SCHEMA["$defs"].values() for k in d.get("properties", {})})
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 2**65), st.floats(-2, 2),
        st.sampled_from(("1/0", "3/4", "-2", "F7", "Q", "F7^2", "degree", "")),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=16),
        st.dictionaries(st.sampled_from(_KEYS + ["extra"]), inner, max_size=5),
    ),
    max_leaves=40,
)


@st.composite
def _schema_documents(draw):
    name = draw(st.sampled_from(_VALIDATED))
    if draw(st.booleans()):
        doc = draw(_JSON)
    else:
        # a pencil that validates, with some entries redrawn
        doc = {"field": "F101", "generators": [list(range(15)), list(range(1, 16))]}
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.integers(0, 1))
            doc["generators"][g][draw(st.integers(0, 14))] = draw(_JSON)
    return name, doc


def test_schema_refs_stand_alone():
    """What inlining needs: each $ref is a whole subschema naming a definition."""
    def walk(node):
        if isinstance(node, dict):
            if "$ref" in node:
                assert len(node) == 1 and node["$ref"].startswith("#/$defs/")
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(SCHEMA)


@settings(max_examples=100, deadline=None, database=None)
@given(_schema_documents())
def test_inlined_validators_report_as_the_defs_validators(case):
    name, doc = case
    assert cli._validate_or_messages(doc, name) == _messages(_defs_validator(name), doc)


@functools.cache
def _one_of_scalar_validator(name):
    """cli._validator's definition with the scalar's three disjoint branches
    under oneOf: the oracle of the shipped anyOf."""
    defs = {**SCHEMA["$defs"], "scalar": {"oneOf": SCHEMA["$defs"]["scalar"]["anyOf"]}}
    return jsonschema.Draft202012Validator(cli._inline_refs(defs[name], defs))


@settings(max_examples=50, deadline=None, database=None)
@given(_schema_documents())
def test_scalar_any_of_reports_as_one_of(case):
    name, doc = case
    assert cli._validate_or_messages(doc, name) == _messages(_one_of_scalar_validator(name), doc)


# values at the edges of Draft 2020-12's types, ranges and patterns
_EDGES = (
    True, False, None, 3.0, 1.5, -0.0, math.nan, math.inf, -math.inf,
    -1, 0, 150, 151, -150, -151, 100_000, 100_001, 2**64 - 1, 2**64, 2**80, -2**80,
    "3\n", "F101\n", "\u0663", "F\u0661\u0660\u0661", "1/2", "-2", "", "pfaffian",
    [3], [], [1.5], [True], {},
)
_GENS = [list(range(15)), list(range(1, 16)), list(range(2, 17))]
# one document of each validated definition that validates
_VALID = {
    "runConfig": {
        "command": "cohomology-table", "field": None, "seed": 7, "trials": None,
        "input": None, "input_path": None, "json_out": None,
        "n": 5, "m": 3, "from": -2, "to": 4,
    },
    "pfaffianInput": {"field": "F101", "pairs": _GENS[0], "matrix": [[0, 1], [-1, 0]]},
    "pencilInput": {"field": "Q", "generators": _GENS[:2], "kind": "pencil"},
    "netInput": {"field": "F7^2", "generators": _GENS, "seed": 3},
}
_DROP = object()


def _paths(node, path=()):
    """The path of node and of values inside it, and one path past the end
    of each dict or list, where a value is added.  Every entry of a list has
    one schema, so only the first and the last are entered."""
    if isinstance(node, dict):
        items, past = node.items(), "extra"
    elif isinstance(node, list):
        items, past = {0: node[0], len(node) - 1: node[-1]}.items() if node else (), len(node)
    else:
        return [path]
    return [path, path + (past,)] + [q for k, v in items for q in _paths(v, path + (k,))]


def _mutated(doc, path, value):
    """A copy of doc with value put at path, or, for _DROP, the value at path
    removed."""
    if not path:
        return doc if value is _DROP else value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    node = functools.reduce(lambda n, k: n[k], head, doc)
    if value is _DROP:
        if isinstance(node, dict) and last in node or isinstance(node, list) and last < len(node):
            del node[last]
    elif isinstance(node, list) and last == len(node):
        node.append(value)
    else:
        node[last] = value
    return doc


def _agrees(name, doc):
    """The predicate accepts exactly where _messages(_defs_validator(name), doc)
    is empty, read as is_valid: a refusal's messages need not be worded."""
    return cli._predicate(name)(doc) == _defs_validator(name).is_valid(doc)


def test_the_predicate_agrees_on_each_edge_in_each_place():
    for name, doc in _VALID.items():
        assert cli._predicate(name)(doc) and _defs_validator(name).is_valid(doc)
        for path in _paths(doc):
            for value in _EDGES + (_DROP,):
                assert _agrees(name, _mutated(doc, path, value)), (name, path, value)


@st.composite
def _mutated_documents(draw):
    """A drawn or a valid document with up to three values set to an edge or a
    drawn value, dropped or added."""
    if draw(st.integers(0, 2)) == 0:
        name, doc = draw(_schema_documents())
    else:
        name = draw(st.sampled_from(_VALIDATED))
        doc = _VALID[name]
    value = st.one_of(st.sampled_from(_EDGES + (_DROP,)), _JSON)
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutated(doc, draw(st.sampled_from(_paths(doc))), draw(value))
    return name, doc


@settings(max_examples=200, deadline=None, database=None)
@given(_mutated_documents())
def test_the_predicate_accepts_exactly_what_jsonschema_accepts(case):
    assert _agrees(*case)


# schemas that use the compiled keywords in forms the definitions do not
_SYNTHETIC = (
    {"enum": [1, None, "a", 2.5]},
    {"enum": [True, 0.0]},
    {"enum": [0, False]},
    {"type": ["number", "boolean"], "minimum": 0, "maximum": 3},
    {"oneOf": [{"type": "integer"}, {"minimum": 0}]},
    {"anyOf": [{"maximum": -1}, {"type": "string", "pattern": "^a"}]},
    {"type": "object", "required": ["a"], "additionalProperties": False,
     "properties": {"a": {"type": "array", "items": {"type": "integer"},
                          "minItems": 1, "maxItems": 2}}},
)


def test_the_predicate_agrees_on_synthetic_schemas():
    for schema in _SYNTHETIC:
        accepts, oracle = cli._compile(schema), jsonschema.Draft202012Validator(schema)
        for value in _EDGES + (1, 2.5, "a", "ba", {"a": [1]}, {"a": [1, 2, 3]}, {"a": []}):
            assert accepts(value) == oracle.is_valid(value), (schema, value)


# the keywords the compiler knows, annotations included
_COMPILED = {
    "type", "enum", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "pattern", "oneOf", "anyOf",
    "title", "description",
}


def test_the_compiler_fails_closed():
    for name in _VALIDATED:
        assert callable(cli._compile(cli._definition(name)))
    unknown = set(jsonschema.Draft202012Validator.VALIDATORS) - _COMPILED
    assert {"$ref", "if", "const", "format", "not", "prefixItems"} <= unknown
    for key in sorted(unknown) + ["$comment", "$defs", "default"]:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            cli._compile({"type": "object", "properties": {"a": {key: {}}}})
    for form in ({"items": [{}]}, {"items": True}, {"additionalProperties": {}},
                 {"additionalProperties": True}, {"enum": [[1]]}, {"enum": [{}]}):
        (key,) = form
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            cli._compile({"items": form})
    with pytest.raises(ValueError, match="True"):
        cli._compile({"anyOf": [True]})


_GOOD = [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
_OTHER = [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0]
_NOT_SCALAR = "is not valid under any of the given schemas"

# stderr of each usage error, pinned from the validators built through $defs
_USAGE_ERRORS = [
    (["pfaffian"], {"field": "F101", "pairs": _GOOD[:14]},
     f"pairs: {_GOOD[:14]} is too short"),
    (["pfaffian"], {"field": "F101", "pairs": ["1/0"] + _GOOD[1:]},
     f"pairs/0: '1/0' {_NOT_SCALAR}"),
    (["pfaffian"], {"field": "F101", "pairs": [1.5] + _GOOD[1:]},
     f"pairs/0: 1.5 {_NOT_SCALAR}"),
    (["complex", "classify"], {"field": "Q", "pairs": _GOOD[:14]},
     f"pairs: {_GOOD[:14]} is too short"),
    (["complex", "classify"], {"field": "Q", "pairs": "abc"},
     "pairs: 'abc' is not of type 'array'"),
    (["complex", "classify"], {"field": 7, "pairs": _GOOD},
     f"field: 7 {_NOT_SCALAR}\nskewloci: config: field: 7 is not of type 'string'"),
    (["pencil", "analyze"], {"field": "F101", "generators": [_GOOD, _OTHER + [0]]},
     f"generators/1: {_OTHER + [0]} is too long"),
    (["pencil", "analyze"], {"field": "F101", "generators": [["3/-4"] + _GOOD[1:], _OTHER]},
     f"generators/0/0: '3/-4' {_NOT_SCALAR}"),
    (["pencil", "analyze"], {"field": "F101", "generators": [_GOOD, [True] + _OTHER[1:]]},
     f"generators/1/0: True {_NOT_SCALAR}"),
    (["pencil", "analyze"], {"field": 7, "generators": [["1/0", 1.5] * 7, "x"]},
     "\nskewloci: config: ".join(
         [f"field: 7 {_NOT_SCALAR}"]
         + [f"generators/0/{i}: '1/0' {_NOT_SCALAR}" for i in (0, 10, 12, 2, 4, 6, 8)]
         + ["generators/1: 'x' is not of type 'array'"]
         + [f"generators/0/{i}: 1.5 {_NOT_SCALAR}" for i in (11, 13, 1, 3, 5, 7, 9)]
         + ["field: 7 is not of type 'string'",
            f"generators/0: {['1/0', 1.5] * 7} is too short"]
     )),
]


@pytest.mark.parametrize("head, doc, errors", _USAGE_ERRORS)
def test_usage_errors_keep_their_bytes(head, doc, errors):
    assert _run_quietly(head + [json.dumps(doc)]) == (2, "", f"skewloci: config: {errors}\n")


def _pfaffian_report(doc, pf):
    return json.dumps({
        "command": "pfaffian", "field": "F101", "input": doc,
        "result": {"order": 6, "pfaffian": pf, "rank": 6},
        "seed": 0, "version": __version__,
    }, indent=2, sort_keys=True) + "\n"


_CANNOT_READ = (
    '{\n  "error": {\n    "message": "cannot read 1.0 as a scalar over F101",\n'
    '    "type": "PreconditionError"\n  }\n}\n'
)


@pytest.mark.parametrize("first, code, pf, err", [
    (1.0, 3, None, _CANNOT_READ),       # an integral float is a schema integer
    ("3\n", 0, 3, ""),                  # re.search's $ matches before the newline
    (2**80, 0, 2**80 % 101, ""),
    ("\u0663", 2, None, f"pairs/0: '\u0663' {_NOT_SCALAR}"),
    (True, 2, None, f"pairs/0: True {_NOT_SCALAR}"),
    (math.nan, 2, None, f"pairs/0: nan {_NOT_SCALAR}"),
    (math.inf, 2, None, f"pairs/0: inf {_NOT_SCALAR}"),
    (-math.inf, 2, None, f"pairs/0: -inf {_NOT_SCALAR}"),
])
def test_pfaffian_edge_scalars_keep_their_answers(first, code, pf, err):
    doc = {"field": "F101", "pairs": [first] + _GOOD[1:]}
    out = _pfaffian_report(doc, pf) if code == 0 else ""
    if code == 2:
        err = f"skewloci: config: {err}\n"
    assert _run_quietly(["pfaffian", json.dumps(doc)]) == (code, out, err)


@pytest.mark.parametrize("head, key", [
    (["pfaffian"], "pairs"), (["complex", "classify"], "pairs"),
    (["pencil", "analyze"], "generators"),
])
def test_an_extra_input_key_is_ignored(head, key):
    doc = {"field": "F101", key: [_GOOD, _OTHER] if key == "generators" else _GOOD}
    plain = _run_quietly(head + [json.dumps(doc)])
    code, out, err = _run_quietly(head + [json.dumps({**doc, "extra": [1, 2]})])
    assert (code, err) == (0, "") and plain[0] == 0
    assert json.loads(out)["result"] == json.loads(plain[1])["result"]


def test_warm_pencil_analyze_matches_a_cold_one():
    """The second request reuses the splitting field's modulus, and its
    report keeps every byte."""
    from skewloci import fields

    # an F101 pencil whose Pfaffian cubic is irreducible
    gens = [[87, 42, 60, 71, 12, 45, 55, 40, 78, 81, 26, 70, 61, 56, 66],
            [33, 7, 70, 1, 11, 92, 51, 90, 100, 85, 80, 0, 78, 63, 42]]
    argv = ["pencil", "analyze", json.dumps({"field": "F101", "generators": gens})]
    for cached in (fields._find_irreducible, cli._validator, cli.build_parser):
        cached.cache_clear()
    cold = _run_quietly(argv)
    hits = fields._find_irreducible.cache_info().hits
    warm = _run_quietly(argv)
    assert fields._find_irreducible.cache_info().hits == hits + 1
    assert cold == warm
    assert cold[0] == 0 and json.loads(cold[1])["result"]["verdict"] == "expected-dim-1"
