"""The workloads: how one pass over a seeded input set runs and is checked.

A pass sends every input of the set once, one op at a time (a closed loop
with one client).  Each op is timed alone; its output is checked after the
clock stops.  An op ends in one of four states:

* ``ok``: exit 0 (or a library call that returned) and every check held;
* ``refused``: a documented exit-3 refusal (a PreconditionError from a
  library call);
* ``incomplete``: a ``fournets`` report with ``complete: false`` that names
  the escalations which stopped it (rational halvings that ran out); the
  program declines to certify, as with a refusal;
* ``failed``: exit 1 (an escaped exception), exit 2 or 4, a report that
  fails ``report.schema.json``, a certificate flag that reads false, an
  incomplete ``fournets`` report that names no escalation, or report bytes
  whose sha256 differs from the digest recorded for the input.

Every failure except an escaped exception or a bad exit code is a wrong
answer and clears the run's ``correct`` flag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

import inputs


class PassResult:
    """Per-op times and outcomes of one pass, and the digests of its ok ops."""

    def __init__(self):
        self.times = []
        self.status = []
        self.reasons = {}
        self.wrong = 0
        self.digests = {}
        self.checked = 0

    def add(self, op_id, seconds, status, reason=None, wrong=False, digest=None):
        self.times.append(seconds)
        self.status.append(status)
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.wrong += wrong
        if digest is not None:
            self.digests[op_id] = digest


class Context:
    """What a pass needs: the program's entry points and the checkers."""

    def __init__(self, validator, recorded):
        from skewloci import cli, nets

        self.cli = cli
        self.nets = nets
        self.validator = validator
        self.recorded = recorded  # {op_id: sha256} for this seed, or None
        self.prefix = ""  # put before every op id; see nets_pass

    def _judge(self, res, op_id, seconds, digest, problem, status="ok"):
        """Record an op that produced output, comparing with the recorded digest."""
        if problem is None and self.recorded is not None and op_id in self.recorded:
            res.checked += 1
            if self.recorded[op_id] != digest:
                problem = "digest"
        if problem is None:
            res.add(op_id, seconds, status, digest=digest)
        else:
            res.add(op_id, seconds, "failed", problem, wrong=True)

    def _refused(self, res, op_id, seconds):
        if self.recorded is not None and op_id in self.recorded:
            res.add(op_id, seconds, "failed", "lost-report", wrong=True)
        else:
            res.add(op_id, seconds, "refused")

    def cli_op(self, res, op_id, argv):
        op_id = self.prefix + op_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
                exc = None
            except Exception as e:  # an escaped traceback is a measured failure
                code, exc = 1, e
            seconds = time.perf_counter() - t0
        if code == 3:
            self._refused(res, op_id, seconds)
            return
        if code != 0:
            reason = f"exception:{type(exc).__name__}" if exc else f"exit{code}"
            res.add(op_id, seconds, "failed", reason)
            return
        text = out.getvalue()
        self._judge(res, op_id, seconds, hashlib.sha256(text.encode()).hexdigest(),
                    *report_problem(self.validator, json.loads(text)))

    def lib_op(self, res, op_id, fn, check, encode):
        op_id = self.prefix + op_id
        from skewloci.errors import PreconditionError

        t0 = time.perf_counter()
        try:
            value = fn()
        except PreconditionError:
            self._refused(res, op_id, time.perf_counter() - t0)
            return None
        except Exception as e:  # an escaped exception is a measured failure
            res.add(op_id, time.perf_counter() - t0, "failed",
                    f"exception:{type(e).__name__}")
            return None
        seconds = time.perf_counter() - t0
        text = json.dumps(encode(value), sort_keys=True)
        self._judge(res, op_id, seconds, hashlib.sha256(text.encode()).hexdigest(),
                    None if check(value) else "certificate")
        return value


def report_problem(validator, report):
    """(why a report is wrong or None, its status): schema, then flags."""
    if any(True for _ in validator.iter_errors(report)):
        return "schema", "ok"
    result = report["result"]
    if report["command"] == "net-analyze":
        count = result["count"]
        if result["type"]["kind"] == "general" and count is not None:
            if not (count["fibered"] and count["ranks_all_four"]
                    and count["fibers_disjoint"]):
                return "certificate", "ok"
    elif report["command"] == "net-fournets":
        if result["complete"]:
            if not result["self_recovered"]:
                return "certificate", "ok"
        elif not result["escalations"]:
            return "certificate", "ok"
        else:
            return None, "incomplete"
    return None, "ok"


# ---------------------------------------------------------------------------
# scroll-session: many library queries against one net


def _vals(xs):
    return [repr(x.v) for x in xs]


def _rows(space):
    return [_vals(r) for r in space.rows]


def scroll_pass(ctx, res, docs, tiny=False):
    """Selftest criterion 9's query pattern, one op per library call.

    Criterion 9 asks ten restricted fibers of a net; a pass asks two, so
    that a run holds several passes.
    """
    from skewloci.fields import PrimeField

    fibers, restricted = (3, 1) if tiny else (20, 2)
    nets = ctx.nets
    for j, doc in enumerate(docs):
        field = PrimeField(int(doc["field"][1:]))
        net = nets.Net.from_pair_vectors(field, doc["generators"])
        tag = f"net{j}."
        cubic = ctx.lib_op(res, tag + "cubic", lambda: nets.net_pfaffian_cubic(net),
                           lambda c: True, lambda c: _vals(c.coeffs))
        if cubic is None:
            continue
        pts = ctx.lib_op(res, tag + "points", cubic.rational_points,
                         lambda p: len(p) > 0, lambda p: [_vals(x) for x in p])
        drep = ctx.lib_op(
            res, tag + "directrix", lambda: nets.directrix_planes(net, seed=0),
            lambda d: len(d.planes) == 2 and not d.infinite_family,
            lambda d: [_rows(p) for p in d.planes])
        if pts is None:
            continue
        # restricted queries spread evenly over the fibers of the session
        restricted_at = set(range(0, fibers, fibers // restricted))
        for k in range(min(fibers, len(pts))):
            fib = ctx.lib_op(res, f"{tag}fiber{k}",
                             lambda lam=pts[k]: nets.scroll_fiber(net, list(lam)),
                             lambda f: f.dim == 2, _rows)
            if drep is None or fib is None or k not in restricted_at:
                continue
            ctx.lib_op(
                res, f"{tag}restricted{k}",
                lambda fib=fib: nets.restricted_fiber_dim(net, fib, drep.planes, seed=0),
                lambda r: (r.dim == 3 and r.lines_sampled == 50
                           and not r.any_member_contains_all),
                lambda r: [r.dim, r.lines_sampled, r.any_member_contains_all,
                           [_vals(b) for b in r.basis]])


def cli_pass(ctx, res, argvs, tiny=False):
    for i, argv in enumerate(argvs):
        ctx.cli_op(res, f"{i:03d}", argv)


def nets_pass(ctx, res, parts, tiny=False):
    """One pass of each net workload in turn, with op ids kept apart."""
    for name, ops in parts.items():
        ctx.prefix = name + "."
        WORKLOADS[name].run(ctx, res, ops, tiny)
    ctx.prefix = ""


class Workload(NamedTuple):
    name: str
    tail: float  # the latency_tail_ms percentile of a pass, fixed per workload
    build: Callable  # (seed, src_dir, pass_index) -> the input set of one pass
    run: Callable  # (ctx, res, inputs, tiny) -> None, one pass
    tiny: int  # inputs kept by --tiny and by the warm-up pass

    def cut(self, ops):
        """The tiny input set: the first few inputs of each part."""
        if isinstance(ops, dict):
            return {name: WORKLOADS[name].cut(part) for name, part in ops.items()}
        return ops[:self.tiny]


def _net_argvs(base, workload, command, extra):
    def build(seed, src, pass_index=0):
        return [["net", command, json.dumps(d)] + extra
                for d in inputs.moved_nets(base, workload, seed, src, pass_index)]
    return build


NET_PARTS = ("net-analyze", "scroll-session", "companion")

WORKLOADS = {
    w.name: w for w in (
        Workload("cli-light", 99, inputs.cli_light_requests, cli_pass, 12),
        Workload("net-analyze", 75,
                 _net_argvs(inputs.NET_ANALYZE_BASE, "net-analyze", "analyze",
                            ["--trials", "5"]),
                 cli_pass, 2),
        Workload("scroll-session", 90,
                 lambda seed, src, pass_index=0: inputs.moved_nets(
                     inputs.SCROLL_BASE, "scroll-session", seed, src, pass_index),
                 scroll_pass, 1),
        Workload("companion", 100,
                 _net_argvs(inputs.COMPANION_BASE, "companion", "fournets", []),
                 cli_pass, 2),
        Workload("nets", 90,
                 lambda seed, src, pass_index=0: {
                     name: WORKLOADS[name].build(seed, src, pass_index)
                     for name in NET_PARTS},
                 nets_pass, 0),
    )
}


def load_digests(path: Path, workload, seed):
    """{op_id: sha256} recorded for pass 0 of a seed, or None.

    ``nets`` has no table of its own: its ops are those of its parts.
    """
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    if workload == "nets":
        parts = [(name, table.get(name, {}).get(str(seed))) for name in NET_PARTS]
        if any(digests is None for _, digests in parts):
            return None
        return {f"{name}.{op}": d for name, digests in parts for op, d in digests.items()}
    return table.get(workload, {}).get(str(seed))
