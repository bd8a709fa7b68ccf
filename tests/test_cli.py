import argparse
import contextlib
import io
import json
import shlex
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewloci import cli, selftest
from skewloci.cli import load_schema, main
from skewloci.fields import PRIME_BOUND, PrimeField

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
            gens[2] = [c * x for x in gens[0]]
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
    parsers, validators = [], []

    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.prog == "skewloci":  # the subparsers are "skewloci <group>"
            parsers.append(self)

    real_validator = jsonschema.Draft202012Validator

    def counting_validator(schema, *args, **kwargs):
        validators.append(json.dumps(schema, sort_keys=True))
        return real_validator(schema, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(jsonschema, "Draft202012Validator", counting_validator)
    cli.build_parser.cache_clear()
    cli._validator.cache_clear()
    try:
        for k in range(20):
            _run_quietly(_MIXED[k % len(_MIXED)])
    finally:
        cli.build_parser.cache_clear()
        cli._validator.cache_clear()
    assert len(parsers) == 1
    # runConfig and pfaffianInput, each once
    assert len(validators) == len(set(validators)) == 2
