"""Command line driver emitting schema-checked JSON reports.

Every invocation is normalized into a run configuration, validated against
the shipped schema before dispatch, and answered with a single JSON report
on stdout carrying the input echo, seed, field, and version.  Identical
configurations produce byte-identical reports.  Exit codes: 0 success,
2 usage or schema violation, 3 mathematical precondition failure,
4 internal inconsistency or a failed self-verification.

Each command is declared once, in the ``_COMMANDS`` table: its argv words
and their help, the schema definition of its input document, and its
handler.  The parser, the input-schema lookup and the dispatch all read
that table.  The parser and one validator per schema definition are built
on the first ``main`` call and reused for the rest of the process; nothing
is built at import.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from typing import Callable, NamedTuple

import jsonschema

from . import __version__
from .errors import InconsistencyError, PreconditionError
from .fields import field_from_wire, from_wire, to_wire

USAGE_EXIT = 2
PRECONDITION_EXIT = 3
INCONSISTENCY_EXIT = 4


def load_schema() -> dict:
    text = (
        resources.files("skewloci") / "schema" / "report.schema.json"
    ).read_text()
    return json.loads(text)


@functools.cache
def _validator(definition_name: str):
    defs = load_schema()["$defs"]
    return jsonschema.Draft202012Validator({**defs[definition_name], "$defs": defs})


def _validate_or_messages(instance, definition_name: str) -> list:
    return [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(_validator(definition_name).iter_errors(instance), key=str)
    ]


def serialize_space(space) -> dict:
    return {
        "proj_dim": space.proj_dim,
        "basis": [[to_wire(x) for x in row] for row in space.rows],
    }


def _decode_matrix(field, doc):
    from .linalg import skew_from_pairs

    if "pairs" in doc:
        coeffs = [from_wire(field, s) for s in doc["pairs"]]
        return skew_from_pairs(field, coeffs)
    if "matrix" in doc:
        return [[from_wire(field, s) for s in row] for row in doc["matrix"]]
    raise PreconditionError("input needs either 'pairs' or 'matrix'")


def _decode_pairs_vectors(field, doc, count):
    gens = doc["generators"]
    return [[from_wire(field, s) for s in g] for g in gens[:count]]


# ---------------------------------------------------------------------------
# command handlers: each takes (field, doc, args) and returns the result object


def run_pfaffian(field, doc, args):
    from .linalg import check_skew, pfaffian_field, rank

    M = _decode_matrix(field, doc)
    check_skew(field, M)
    return {
        "order": len(M),
        "pfaffian": to_wire(pfaffian_field(field, M)),
        "rank": rank(field, M),
    }


def run_classify(field, doc, args):
    from .complexes import LinearComplex

    cx = LinearComplex(field, _decode_matrix(field, doc))
    cls = cx.complex_class()
    return {
        "kind": cls.kind,
        "rank": cx.rank(),
        "pfaffian": to_wire(cls.pf),
        "singular_space": serialize_space(cls.singular_space),
    }


def run_pencil(field, doc, args):
    from .pencils import Pencil, alpha

    pen = Pencil.from_pair_vectors(field, _decode_pairs_vectors(field, doc, 2))
    rep = alpha(pen, seed=args.seed)
    members = [
        {
            "parameter": [to_wire(m.lam), to_wire(m.mu)],
            "multiplicity": m.multiplicity,
            "kind": m.kind,
            "field": m.complex.field.short(),
            "singular_space": serialize_space(m.complex.kernel_space()),
        }
        for m in rep.members
    ]
    configuration = None
    if rep.configuration is not None:
        cfg = rep.configuration
        configuration = {
            "case": cfg.case_id,
            "span_dim": cfg.span_dim,
            "pairwise_meets": list(cfg.pairwise_meets),
            "trisecant": (
                serialize_space(cfg.trisecant) if cfg.trisecant is not None else None
            ),
        }
    return {
        "verdict": rep.verdict,
        "members": members,
        "lines": (
            [serialize_space(l) for l in rep.lines]
            if rep.lines is not None
            else None
        ),
        "configuration": configuration,
        "second_type_witness": (
            serialize_space(rep.second_type_witness)
            if rep.second_type_witness is not None
            else None
        ),
    }


def run_net(field, doc, args):
    from .errors import DegenerateInputError, UnsupportedFieldError
    from .nets import (
        EXHAUSTIVE_PRIME_CAP,
        Net,
        count_scroll_points,
        degree_probe,
        directrix_planes,
        net_pfaffian_cubic,
        net_type,
    )

    net = Net.from_pair_vectors(field, _decode_pairs_vectors(field, doc, 3))
    seed, trials = args.seed, args.trials
    notes = []
    trep = net_type(net, seed=seed)
    type_obj = {
        "kind": trep.kind,
        "witness_kind": trep.witness_kind,
        "witness": (
            [to_wire(x) for x in trep.witness]
            if trep.witness is not None
            else None
        ),
        "witness_field": trep.field.short() if trep.field is not None else None,
        "generator_index": trep.generator_index,
        "caveat": trep.caveat,
    }

    cubic_obj = None
    cubic = None
    try:
        cubic = net_pfaffian_cubic(net)
    except DegenerateInputError:
        notes.append("the restricted Pfaffian vanishes; no base cubic")
    if cubic is not None:
        try:
            smooth = cubic.smoothness(seed=seed).smooth
        except UnsupportedFieldError:
            smooth = None
            notes.append("smoothness is undecided over this field")
        cubic_obj = {
            "coefficients": [to_wire(c) for c in cubic.coeffs],
            "smooth": smooth,
        }

    count_obj = None
    if field.order is not None and field.degree == 1 and field.char <= EXHAUSTIVE_PRIME_CAP:
        rep = count_scroll_points(net)
        count_obj = {
            "q": rep.q,
            "x_count": rep.x_count,
            "c_count": rep.c_count,
            "fibered": rep.fibered,
            "ranks_all_four": rep.ranks_all_four,
            "fibers_disjoint": rep.fibers_disjoint,
        }
    else:
        notes.append("exhaustive counting is limited to prime fields up to 11")

    directrix_obj = None
    if trep.kind != "general":
        notes.append("plane search skipped: the net has a rank-2 member")
    elif field.order is None:
        notes.append("plane search skipped: it enumerates a finite field")
    else:
        try:
            drep = directrix_planes(net, seed=seed)
            directrix_obj = {
                "planes": [serialize_space(p) for p in drep.planes],
                "infinite_family": drep.infinite_family,
            }
        except PreconditionError as e:
            notes.append(f"plane search skipped: {e}")

    probe_obj = None
    if trials:
        try:
            prep = degree_probe(net, trials=trials, seed=seed)
            probe_obj = {
                "trials": len(prep.trials),
                "max_generic": prep.max_generic,
                "attained_six": prep.attained_six,
            }
        except PreconditionError as e:
            notes.append(f"degree probe skipped: {e}")
    return {
        "type": type_obj,
        "cubic": cubic_obj,
        "count": count_obj,
        "directrix": directrix_obj,
        "probe": probe_obj,
        "notes": notes,
    }


def run_fournets(field, doc, args):
    from .fournets import companion_nets
    from .nets import Net

    net = Net.from_pair_vectors(field, _decode_pairs_vectors(field, doc, 3))
    rep = companion_nets(net, cross_samples=args.trials or 50, seed=args.seed)
    return {
        "complete": rep.complete,
        "torsion_classes_found": rep.torsion_classes_found,
        "self_recovered": rep.self_recovered,
        "all_general": rep.all_general,
        "pairwise_distinct": rep.pairwise_distinct,
        "companions": [
            {
                "generators": [
                    [to_wire(x) for x in g.coeffs()]
                    for g in comp.generators
                ]
            }
            for comp in rep.companion_nets
        ],
        "cross": [
            {
                "forward_checked": c.forward_checked,
                "backward_checked": c.backward_checked,
                "forward_ok": c.forward_ok,
                "backward_ok": c.backward_ok,
            }
            for c in rep.cross_verification
        ],
        "escalations": [
            {
                "torsion_rep": [to_wire(x) for x in trep],
                "point": (
                    [to_wire(x) for x in pt] if pt is not None else None
                ),
                "reason": reason,
            }
            for trep, pt, reason in rep.field_escalations
        ],
    }


def _render_table(table, conflict_at) -> list:
    n = table.n
    head = ["p"] + [f"h{i}" for i in range(n + 1)] + ["notes"]
    rows = []
    for row in table.rows:
        cells = [str(row.p)]
        for i, e in enumerate(row.entries):
            if row.provenance[i] == "conflict":
                pred, orc = conflict_at[(i, row.p)]
                cells.append(f"{pred}!{orc}")
            else:
                cells.append(str(e))
        notes = []
        for i in range(n + 1):
            if row.provenance[i] == "conflict":
                pred, orc = conflict_at[(i, row.p)]
                notes.append(f"conflict at i={i}: predicted {pred}, oracle {orc}")
        if not row.chi_consistent:
            notes.append("chi gap")
        cells.append("; ".join(notes))
        rows.append(cells)
    widths = [
        max(len(r[c]) for r in [head] + rows) for c in range(len(head) - 1)
    ]
    out = []
    for cells in [head] + rows:
        line = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        if cells[-1]:
            line += "  " + cells[-1]
        out.append(line.rstrip())
    return out


def run_cohomology(field, doc, args):
    from .cohomology import buchsbaum_sv_check, degree_formula, en_table

    n, m, p_from, p_to = args.n, args.m, args.p_from, args.p_to
    p_range = None
    if p_from is not None or p_to is not None:
        if p_from is None or p_to is None:
            raise PreconditionError("--from and --to must be given together")
        p_range = (p_from, p_to)
    table = en_table(n, m, p_range=p_range)
    sv = buchsbaum_sv_check(table)
    conflicts = table.conflicts()
    conflict_at = {(i, p): (pred, orc) for i, p, pred, orc in conflicts}
    return {
        "n": n,
        "m": m,
        "window": list(table.window),
        "degree": degree_formula(n, m),
        "rows": [
            {
                "twist": row.p,
                "entries": list(row.entries),
                "provenance": list(row.provenance),
                "chi_consistent": row.chi_consistent,
                "caveat": row.caveat,
            }
            for row in table.rows
        ],
        "conflicts": [
            {"i": i, "twist": p, "predicted": pred, "oracle": orc}
            for i, p, pred, orc in conflicts
        ],
        "chi_gaps": table.chi_gaps(),
        "sv": {
            "holds": sv.holds,
            "witness": (
                [list(sv.witness[0]), list(sv.witness[1])]
                if sv.witness is not None
                else None
            ),
        },
        "rendered": _render_table(table, conflict_at),
    }


def run_degree(field, doc, args):
    from .cohomology import degree_formula

    return {"degree": degree_formula(args.n, args.m)}


def run_selftest(field, doc, args):
    from .selftest import run_all

    results = run_all(progress=lambda r: print(r.line(), file=sys.stderr))
    return {
        "criteria": [
            {"id": r.id, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# the command table and argument plumbing


class _Command(NamedTuple):
    words: tuple  # argv words: a group, then an action if the group has several
    helps: tuple  # help text of each word
    input_def: str | None  # schema definition of the input document, if any
    handler: Callable  # one of the run_* handlers above
    flags: tuple = ()  # keys of _FLAGS, ahead of --seed


_FLAGS = {
    "--n": {"type": int, "required": True},
    "--m": {"type": int, "required": True},
    "--from": {"dest": "p_from", "type": int, "default": None},
    "--to": {"dest": "p_to", "type": int, "default": None},
}

# keyed by the schema's commandName values, in its order
_COMMANDS = {
    "pfaffian": _Command(
        ("pfaffian",), ("Pfaffian and rank of one skew matrix",),
        "pfaffianInput", run_pfaffian),
    "complex-classify": _Command(
        ("complex", "classify"),
        ("single complex commands", "rank class and singular space"),
        "pfaffianInput", run_classify),
    "pencil-analyze": _Command(
        ("pencil", "analyze"),
        ("pencil commands", "singular members and their lines"),
        "pencilInput", run_pencil),
    "net-analyze": _Command(
        ("net", "analyze"), ("net commands", "type, cubic, counts, planes"),
        "netInput", run_net),
    "net-fournets": _Command(
        ("net", "fournets"), ("net commands", "the four companion nets"),
        "netInput", run_fournets),
    "cohomology-table": _Command(
        ("cohomology", "table"),
        ("cohomology commands", "ideal-sheaf cohomology table"),
        None, run_cohomology, ("--n", "--m", "--from", "--to")),
    "degree": _Command(
        ("degree",), ("degree of the degeneracy locus",),
        None, run_degree, ("--n", "--m")),
    "selftest": _Command(
        ("selftest",), ("run the verification suite",), None, run_selftest),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewloci",
        description="Exact degeneracy-locus geometry of skew forms on P^5.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for name, cmd in _COMMANDS.items():
        group, *action = cmd.words
        if not action:
            leaf = groups.add_parser(group, help=cmd.helps[0])
        else:
            if group not in actions:
                actions[group] = groups.add_parser(
                    group, help=cmd.helps[0]
                ).add_subparsers(dest="action", required=True)
            leaf = actions[group].add_parser(action[0], help=cmd.helps[1])
        takes_input = cmd.input_def is not None
        if takes_input:
            leaf.add_argument(
                "source",
                help="input file path, or an inline JSON object starting with '{'",
            )
            leaf.add_argument("--field", default=None,
                              help="field descriptor: QQ or F<p> (overrides the file)")
        for flag in cmd.flags:
            leaf.add_argument(flag, **_FLAGS[flag])
        leaf.add_argument("--seed", type=int, default=0)
        if takes_input:
            leaf.add_argument("--trials", type=int, default=None)
        leaf.add_argument("--json-out", default=None)
        leaf.set_defaults(command=name)
    return parser


def _load_input(source: str):
    if source.lstrip().startswith("{"):
        return json.loads(source), None
    with open(source, "r") as fh:
        return json.load(fh), source


def _usage_error(msg: str) -> int:
    print(f"skewloci: {msg}", file=sys.stderr)
    return USAGE_EXIT


def _structured_error(exc: Exception, code: int) -> int:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT

    command = args.command
    cmd = _COMMANDS[command]
    input_def = cmd.input_def

    input_doc = None
    input_path = None
    if input_def is not None:
        try:
            input_doc, input_path = _load_input(args.source)
        except (OSError, ValueError) as e:  # ValueError: ints over 4300 digits
            return _usage_error(f"cannot read input: {e}")

    config = {
        "command": command,
        "field": getattr(args, "field", None)
        or (input_doc.get("field") if isinstance(input_doc, dict) else None),
        "seed": args.seed,
        "trials": getattr(args, "trials", None),
        "input": input_doc,
        "input_path": input_path,
        "json_out": args.json_out,
        "n": getattr(args, "n", None),
        "m": getattr(args, "m", None),
        "from": getattr(args, "p_from", None),
        "to": getattr(args, "p_to", None),
    }
    problems = _validate_or_messages(config, "runConfig")
    if input_def is not None:
        if config["field"] is None:
            problems.append("field: a field descriptor is required")
        problems += _validate_or_messages(input_doc, input_def)
    if problems:
        for msg in problems:
            print(f"skewloci: config: {msg}", file=sys.stderr)
        return USAGE_EXIT

    try:
        field = None if input_def is None else field_from_wire(config["field"])
        result = cmd.handler(field, input_doc, args)
    except PreconditionError as e:
        return _structured_error(e, PRECONDITION_EXIT)
    except InconsistencyError as e:
        return _structured_error(e, INCONSISTENCY_EXIT)

    report = {
        "command": command,
        "version": __version__,
        "field": field.short() if field is not None else None,
        "seed": config["seed"],
        "input": input_doc if input_doc is not None else {
            k: config[k] for k in ("n", "m", "from", "to") if config[k] is not None
        } or None,
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config["json_out"]:
        with open(config["json_out"], "w") as fh:
            fh.write(text)
    if command == "selftest" and not result["all_passed"]:
        return INCONSISTENCY_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
