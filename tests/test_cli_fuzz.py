"""Property-based fuzzing of document parsing and the CLI exit contract.

Every input file, well formed or not, must end in exit 0, 1 or 2 with a JSON
report whose status matches the code: 0 "ok", 1 "rejected" (a domain
rejection), 2 "error" (malformed or invalid input).  An uncaught exception
would surface as exit 1 with no report.  Documents are drawn valid most of
the time so that the commands run to a result, then mutated one field at a
time, swapped for another kind, truncated or replaced by arbitrary JSON.  A
valid document with one number written as a string must exit 2.
Dimensions stay at most 4 and ``--d`` at most 8, so every job is small.
Examples are derandomized, so the suite runs the same inputs every time.
"""

import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import event, example, given, strategies as st

from qmajor.cli import _DEFAULT_TOLS, main, parse_document
from qmajor.numkernel import ValidationError

from conftest import FUZZ

COMMANDS = {
    "majorize-check": ("probvec", "probvec"),
    "majorize-decompose": ("probvec", "probvec"),
    "ensemble-synth": ("density", "probvec"),
    "ensemble-verify": ("ensemble", "density"),
    "schmidt": ("bipartite",),
    "corollary4": ("bipartite", "probvec"),
    "protocol-run": ("bipartite",),
    "schur-report": ("probvec", "probvec"),
}
STATUS = {0: "ok", 1: "rejected", 2: "error"}

dims = st.integers(1, 4)
# Exact zeros and ties give rank-deficient and degenerate inputs.
unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
signed = st.just(0.0) | st.floats(-1.0, 1.0)
# Values JSON can carry that a field may not expect: inf and 10**400 do not
# fit an int or a float, nan compares false, strings and containers.
special = st.sampled_from(
    [None, True, -1, 0, 10**400, -0.0, float("inf"), float("nan"), 1e-320, "x", [], {}, [[0, 0]]]
)
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | special,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _entries(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _normalized(w):
    total = float(np.sum(w))
    return w / total if total > 0 else np.full(w.size, 1.0 / w.size)


@st.composite
def complex_matrix(draw, rows, cols):
    re = draw(st.lists(signed, min_size=rows * cols, max_size=rows * cols))
    im = draw(st.lists(signed, min_size=rows * cols, max_size=rows * cols))
    return (np.array(re) + 1j * np.array(im)).reshape(rows, cols)


@st.composite
def probvec(draw):
    w = np.array(draw(st.lists(unit, min_size=1, max_size=5)))
    return {"kind": "probvec", "weights": _normalized(w).tolist()}


@st.composite
def density(draw):
    n = draw(dims)
    g = draw(complex_matrix(n, draw(st.integers(1, n))))
    m = g @ g.conj().T
    trace = float(np.trace(m).real)
    # Below about 1e-200 the products lose the precision that keeps |m_ij| <= trace.
    m = m / trace if trace > 1e-200 else np.eye(n) / n
    return {"kind": "density", "dim": n, "entries": _entries(m)}


@st.composite
def bipartite(draw):
    a, b = draw(dims), draw(dims)
    m = draw(complex_matrix(a, b))
    norm = float(np.linalg.norm(m))
    m = m / norm if norm > 0 else np.eye(a, b) / np.sqrt(min(a, b))
    return {"kind": "bipartite", "dimA": a, "dimB": b, "amplitudes": _entries(m)}


@st.composite
def ensemble(draw):
    n, count = draw(dims), draw(dims)
    states = draw(complex_matrix(count, n))
    norms = np.linalg.norm(states, axis=1)
    states[norms == 0, 0] = 1.0
    states = states / np.linalg.norm(states, axis=1)[:, None]
    w = np.array(draw(st.lists(unit, min_size=count, max_size=count)))
    doc = {"kind": "ensemble", "weights": _normalized(w).tolist(), "states": _entries(states)}
    if draw(st.booleans()):
        doc["synthetic"] = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return doc


@st.composite
def statevec(draw):
    v = draw(complex_matrix(1, draw(dims)))
    return {"kind": "statevec", "amplitudes": _entries(v)[0]}


@st.composite
def matrix(draw):
    return {"kind": "matrix", "entries": _entries(draw(complex_matrix(draw(dims), draw(dims))))}


VALID = {
    "probvec": probvec(),
    "density": density(),
    "bipartite": bipartite(),
    "ensemble": ensemble(),
    "statevec": statevec(),
    "matrix": matrix(),
}


@st.composite
def document(draw, kind):
    """A document meant as ``kind``: valid, one field mutated, another kind, or junk."""
    choice = draw(st.integers(0, 9))
    if choice < 6:
        return draw(VALID[kind])
    if choice < 8:
        doc = draw(VALID[kind])
        doc[draw(st.sampled_from([*sorted(doc), "dim", "dimA", "dimB", "synthetic"]))] = draw(junk)
        return doc
    if choice == 8:
        return draw(st.sampled_from(sorted(VALID)).flatmap(lambda k: VALID[k]))
    return draw(junk)


@st.composite
def invocation(draw):
    """Command line and input file texts for one CLI job."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kinds = COMMANDS[command]
    count = len(kinds) if draw(st.integers(0, 9)) else draw(st.integers(1, 3))
    texts = []
    for i in range(count):
        text = json.dumps(draw(document(kinds[i] if i < len(kinds) else "probvec")))
        if draw(st.integers(0, 19)) == 0:
            text = text[: draw(st.integers(0, len(text)))]
        texts.append(text)
    opts = []
    if command == "protocol-run":
        opts += ["--d", str(draw(st.integers(-1, 8)))]
        if draw(st.booleans()):
            opts.append("--exhaustive")
        opts += ["--seed", str(draw(st.integers(-3, 2**64)))]
    # Each command takes only the tolerance flags it applies.
    flags = [o for p in main.commands[command].params for o in p.opts if o.startswith("--tol-")]
    if flags and draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(flags))
        opts += [name, repr(draw(st.floats() | st.sampled_from([0.0, 1e-12, 0.5])))]
    return command, texts, opts


def _numeric_leaves(node, path=()):
    """Key paths of the int and float leaves of a JSON value; bools are not numbers here."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _numeric_leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _numeric_leaves(item, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@st.composite
def stringified(draw):
    """A command with valid documents, one numeric leaf of one of them written as a string."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    docs = [draw(VALID[kind]) for kind in COMMANDS[command]]
    doc = draw(st.sampled_from(docs))
    *parents, leaf = draw(st.sampled_from(list(_numeric_leaves(doc))))
    for key in parents:
        doc = doc[key]
    doc[leaf] = str(doc[leaf])
    return command, [json.dumps(d) for d in docs], ["--d", "2"] if command == "protocol-run" else []


def _invoke(command, texts, opts):
    """Run one CLI job on the input file texts; its exit code and report."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [command]
        for i, text in enumerate(texts):
            path = Path(tmp, f"in{i}.json")
            path.write_text(text)
            args += ["-i", str(path)]
        out = Path(tmp, "report.json")
        res = CliRunner().invoke(main, [*args, *opts, "-o", str(out)])
        assert res.exception is None or isinstance(res.exception, SystemExit), "".join(
            traceback.format_exception(*res.exc_info)
        )
        assert res.exit_code in STATUS, res.output
        assert out.exists(), f"exit {res.exit_code} wrote no report"
        return res.exit_code, json.loads(out.read_text())


@FUZZ
@given(st.sampled_from(sorted(VALID)).flatmap(
    lambda kind: st.tuples(document(kind), st.sampled_from([kind, *sorted(VALID)]))))
def test_parse_document_raises_only_input_errors(case):
    # The document is read as the kind it was drawn for, or as any kind.
    doc, expect = case
    try:
        parse_document(doc, "doc", dict(_DEFAULT_TOLS), expect)
    except ValidationError:
        pass


# A valid density with subnormal off-diagonal entries: the eigensolver's
# rotations must stay finite on it.
SUBNORMAL_DENSITY = {
    "kind": "density",
    "dim": 3,
    "entries": [
        [[0.5, 0.0], [0.0, -0.5], [0.0, -1.1e-313]],
        [[0.0, 0.5], [0.5, 0.0], [1.1e-313, 0.0]],
        [[0.0, 1.1e-313], [1.1e-313, 0.0], [0.0, 0.0]],
    ],
}
SUBNORMAL_JOB = (
    "ensemble-synth", [json.dumps(SUBNORMAL_DENSITY), json.dumps({"kind": "probvec", "weights": [1.0]})], []
)


# A member of weight 1e-10 and norm 1e100: its audit once overflowed to an
# error JSON cannot carry, and the job ended in a traceback.
TINY_WEIGHT_HUGE_MEMBER_JOB = (
    "ensemble-verify",
    [json.dumps({"kind": "ensemble", "weights": [1 - 1e-10, 1e-10],
                 "states": [[[1, 0], [0, 0]], [[0, 0], [1e100, 0]]]}),
     json.dumps({"kind": "density", "dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})],
    [],
)


# With --tol-major 1000, [800, 0] is a probvec, and exp(800) overflows: the
# report once failed to encode the inf and the job ended in a traceback.
SCHUR_OVERFLOW_JOB = (
    "schur-report", [json.dumps({"kind": "probvec", "weights": [800.0, 0.0]})] * 2, ["--tol-major", "1000"]
)


@FUZZ
@given(invocation())
@example(SUBNORMAL_JOB)
@example(TINY_WEIGHT_HUGE_MEMBER_JOB)
@example(SCHUR_OVERFLOW_JOB)
def test_cli_exit_contract(inv):
    command, texts, opts = inv
    code, report = _invoke(command, texts, opts)
    # --hypothesis-show-statistics prints the mix of commands and exit codes
    event(f"{command} exit {code}")
    assert report["status"] == STATUS[code], report
    assert report["command"] == command


def test_subnormal_density_is_synthesized():
    code, report = _invoke(*SUBNORMAL_JOB)
    assert code == 0, report
    assert report["status"] == "ok"


def test_non_unit_member_of_tiny_weight_is_an_input_error(tmp_path):
    # In a process of its own under -W error: a report, exit 2 and nothing on stderr.
    command, texts, _ = TINY_WEIGHT_HUGE_MEMBER_JOB
    args = [sys.executable, "-W", "error", "-m", "qmajor.cli", command, "-o", str(tmp_path / "report.json")]
    for i, text in enumerate(texts):
        (tmp_path / f"in{i}.json").write_text(text)
        args += ["-i", str(tmp_path / f"in{i}.json")]
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(args, capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (res.returncode, res.stderr) == (2, b"")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert report["reason"] == {
        "class": "input", "detail": "ensemble member 1 norm 1e+100 deviates from 1 by more than 1e-09",
    }


def test_schur_overflow_is_an_input_error():
    code, report = _invoke(*SCHUR_OVERFLOW_JOB)
    assert code == 2, report
    assert report["reason"] == {
        "class": "input", "detail": "Schur-convex function sum[exp] is not finite: inf vs inf",
    }


@FUZZ
@given(stringified())
def test_string_numbers_are_input_errors(case):
    # No numeric field accepts a string, whatever the string holds.
    code, report = _invoke(*case)
    assert code == 2, report
    assert report["status"] == "error"
    assert report["reason"]["class"] == "input"
