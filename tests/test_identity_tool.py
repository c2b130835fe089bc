"""The identity harness, ``tools/identity.py``: the one determinism pin for the library and the CLI.

Two records of one tree, made in one process, must be byte-identical; ``--compare`` must pass
equal records, and tell a moved value from a changed decision and from a missing path;
``--compare --strict`` must fail on anything that is not byte-equal, and ``--atol X`` on a leaf
that moved by more than X.  Each path run twice in a row is ``tests/test_determinism.py``, on
the same table.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from conftest import identity_tool as _tool


def _rows(out):
    """``{path: (fixtures, byte-equal, max |diff|, decisions)}`` from ``--compare``'s table."""
    rows = [line.rsplit(None, 4) for line in out.splitlines() if line.endswith(("equal", "DIFFER"))]
    return {name: tuple(rest) for name, *rest in rows}


def test_two_records_of_one_tree_are_byte_identical(tmp_path, capsys):
    """Every library path and CLI job, run twice on inputs rebuilt from the seed, gives the same bytes."""
    tool = _tool()
    a, b = str(tmp_path / "A"), str(tmp_path / "B")
    for out in (a, b):
        assert tool.main(["record", out, "--fixtures", "3", "--cli-fixtures", "2"]) == 0
    capsys.readouterr()
    assert tool.main(["--compare", a, b, "--strict"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 20 + 9
    for name, (fixtures, byte_equal, diff, decisions) in rows.items():
        assert (byte_equal, diff, decisions) == (fixtures, "0", "equal"), name
        assert int(fixtures) == (2 if name.startswith("cli:") else 3)


@pytest.fixture
def records(tmp_path):
    """Two equal records A and B, six fixtures per library path and one per CLI job; a test edits B."""
    tool = _tool()
    a, b = tmp_path / "A", tmp_path / "B"
    assert tool.main(["record", str(a), "--fixtures", "6", "--cli-fixtures", "1"]) == 0
    shutil.copytree(a, b)
    return tool, a, b


def _edit(path, edit):
    """Rewrite one record file: ``edit(fixtures, values)`` changes what changed, and the digest of
    every fixture it returns moves, as a real change would move it."""
    with np.load(path) as z:
        info = json.loads(str(z["meta"]))
        values = [z[f"values{i}"] for i in range(len(info["fixtures"]))]
    for i in edit(info["fixtures"], values):
        info["fixtures"][i]["digest"] = hashlib.sha256(b"edited").hexdigest()
    np.savez_compressed(path, meta=np.array(json.dumps(info)),
                        **{f"values{i}": v for i, v in enumerate(values)})


def _one_ulp(fixtures, values):
    """Move the first float leaf of fixture 0 one ulp up, every decision equal."""
    values[0][0] = complex(np.nextafter(values[0][0].real, np.inf), values[0][0].imag)
    return [0]


def test_a_record_compares_byte_equal_with_itself(records, capsys):
    """``--compare``'s passing case, the baseline the tests below edit: equal records read every
    fixture byte-equal, max |diff| ``0`` and decisions ``equal``, print no detail line, exit 0."""
    tool, a, b = records
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert len(rows) == 20 + 9
    for name, (fixtures, byte_equal, diff, decisions) in rows.items():
        count = "1" if name.startswith("cli:") else "6"
        assert (fixtures, byte_equal, diff, decisions) == (count, count, "0", "equal"), name
    assert not any(line.startswith(("  moved:", "  decision:", "  bytes:")) for line in out.splitlines())


def test_compare_fails_on_a_changed_decision(records, capsys):
    tool, a, b = records

    def new_message(fixtures, values):
        for i, fixture in enumerate(fixtures):
            for entry in fixture["decisions"]:
                if entry[1:2] == ["error"]:
                    entry[3] += " (edited)"
                    return [i]
        raise AssertionError("no fixture of validate_density was rejected")

    _edit(b / "validate_density.npz", new_message)
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert _rows(out)["validate_density"][3] == "DIFFER"
    assert any(line.startswith("  decision: validate_density fixture ") and "(edited)" in line
               for line in out.splitlines())


def test_compare_fails_on_a_missing_path(records, capsys):
    tool, a, b = records
    (b / "schmidt.npz").unlink()
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert "missing in B" in next(line for line in capsys.readouterr().out.splitlines()
                                  if line.startswith("schmidt "))


def test_compare_fails_on_a_directory_without_a_record(records, capsys):
    """A mistyped directory holds no path, so nothing in it could be called missing."""
    tool, a, b = records
    for x, y in ((a, a.parent / "none"), (a.parent / "none", b)):
        capsys.readouterr()
        assert tool.main(["--compare", str(x), str(y), "--strict"]) == 1
        assert "no record in " in capsys.readouterr().out


def test_compare_reports_a_moved_last_bit_and_passes(records, capsys):
    tool, a, b = records
    _edit(b / "hermitian_eig.npz", _one_ulp)
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    fixtures, byte_equal, diff, decisions = _rows(out)["hermitian_eig"]
    assert (int(fixtures), int(byte_equal), decisions) == (6, 5, "equal")
    assert 0 < float(diff) < 1e-15
    assert any(line.startswith("  moved: hermitian_eig ") and "in 1 fixtures" in line
               for line in out.splitlines())


def _moved_by(delta):
    """An edit that moves the real part of fixture 0's first float leaf by ``delta``."""
    def edit(fixtures, values):
        values[0][0] = complex(values[0][0].real + delta, values[0][0].imag)
        return [0]
    return edit


def test_atol_fails_a_leaf_moved_past_it_and_names_the_path(records, capsys):
    tool, a, b = records
    with np.load(a / "hermitian_eig.npz") as z:
        before = z["values0"][0].real
    _edit(b / "hermitian_eig.npz", _moved_by(1e-12))
    with np.load(b / "hermitian_eig.npz") as z:
        assert 1e-13 < abs(z["values0"][0].real - before) < 1e-11
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b), "--atol", "1e-13"]) == 1
    out = capsys.readouterr().out
    assert _rows(out)["hermitian_eig"][3] == "equal"
    atol_lines = [line for line in out.splitlines() if line.startswith("  atol:")]
    assert len(atol_lines) == 1 and atol_lines[0].startswith("  atol: hermitian_eig ")
    assert tool.main(["--compare", str(a), str(b), "--atol", "1e-11"]) == 0
    assert not any(line.startswith("  atol:") for line in capsys.readouterr().out.splitlines())


def test_atol_fails_a_nan_leaf_at_any_tolerance(records, capsys):
    tool, a, b = records
    _edit(b / "hermitian_eig.npz", _moved_by(np.nan))
    for atol in ("1e-13", "1", "1e300", "inf"):
        capsys.readouterr()
        assert tool.main(["--compare", str(a), str(b), "--atol", atol]) == 1, atol
        assert any(line.startswith("  atol: hermitian_eig ")
                   for line in capsys.readouterr().out.splitlines()), atol
    assert tool.main(["--compare", str(a), str(b)]) == 0  # without --atol, decisions alone decide


def test_atol_with_record_is_a_usage_error(tmp_path, capsys):
    """As ``--strict`` is: the option is known, and ``record`` does not take it."""
    with pytest.raises(SystemExit) as exc:
        _tool().main(["record", str(tmp_path / "A"), "--atol", "1e-14"])
    assert exc.value.code == 2
    assert "give either 'record DIR' or '--compare A B [--strict] [--atol X]'" in capsys.readouterr().err
    assert not (tmp_path / "A").exists()


def test_strict_compare_passes_equal_records(records):
    tool, a, b = records
    assert tool.main(["--compare", str(a), str(b), "--strict"]) == 0


def test_strict_compare_fails_on_a_moved_last_bit(records, capsys):
    tool, a, b = records
    _edit(b / "hermitian_eig.npz", _one_ulp)
    assert tool.main(["--compare", str(a), str(b), "--strict"]) == 1
    assert _rows(capsys.readouterr().out)["hermitian_eig"][3] == "equal"


def test_strict_compare_fails_when_report_bytes_alone_moved(records, capsys):
    tool, a, b = records
    _edit(b / "cli_schmidt.npz", lambda fixtures, values: [0])
    assert tool.main(["--compare", str(a), str(b), "--strict"]) == 1
    assert _rows(capsys.readouterr().out)["cli:schmidt"] == ("1", "0", "0", "equal")


def test_compare_names_a_fixture_whose_report_bytes_alone_moved(records, capsys):
    """A CLI report whose bytes moved, say its whitespace, with equal decisions and float leaves:
    no ``moved:`` or ``decision:`` line can name it, so a ``bytes:`` line does."""
    tool, a, b = records
    _edit(b / "cli_schmidt.npz", lambda fixtures, values: [0])
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert _rows(out)["cli:schmidt"] == ("1", "0", "0", "equal")
    with np.load(b / "cli_schmidt.npz") as z:
        label = json.loads(str(z["meta"]))["fixtures"][0]["label"]
    notes = [line for line in out.splitlines() if line.startswith("  ")]
    assert notes == [f"  bytes: cli:schmidt fixture {label}: decisions and float leaves equal"]


def test_a_last_bit_is_a_value_and_a_message_is_a_decision():
    tool = _tool()
    one_ulp = np.nextafter(0.5, 1.0)
    base, v_base = tool._fixture_record("f", {"p": 0.5, "k": 3, "msg": "ok"})
    moved, v_moved = tool._fixture_record("f", {"p": one_ulp, "k": 3, "msg": "ok"})
    assert base["decisions"] == moved["decisions"] and base["digest"] != moved["digest"]
    assert tool._max_diff(v_base, v_moved) == one_ulp - 0.5
    for other in ({"p": 0.5, "k": 4, "msg": "ok"}, {"p": 0.5, "k": 3, "msg": "no"}, {"p": 0.5, "k": 3}):
        assert tool._fixture_record("f", other)[0]["decisions"] != base["decisions"]


def test_a_zero_s_sign_is_a_moved_bit():
    tool = _tool()
    plus, v_plus = tool._fixture_record("f", {"t": 0.0})
    minus, v_minus = tool._fixture_record("f", {"t": -0.0})
    assert plus["decisions"] == minus["decisions"] and plus["digest"] != minus["digest"]
    assert v_plus.tobytes() != v_minus.tobytes()


def test_fixtures_reach_the_sizes_the_benchmark_runs():
    """Large pairs sit at the witness-sweep's d, negative-zero pairs end in -0.0 past y's length,
    within-tol pairs are accepted yet fail a Schur-convex comparison, every seventh
    ``run_protocol`` fixture draws its target at n = 24..70, and every seventh ``random_density``
    fixture its dimension at 24..64."""
    import qmajor

    tool = _tool()
    rng = np.random.default_rng(0)
    for _ in range(12):
        x, y = tool._pair(rng, "large")
        assert max(x.size, y.size) in (32, 64, 128, 256) and qmajor.is_majorized_by(x, y)
        x, y = tool._pair(rng, "negative-zero")
        tail = x[y.size:]
        assert tail.size and not tail.any() and np.signbit(tail).all() and qmajor.is_majorized_by(x, y)
        x, y = tool._pair(rng, "within-tol")
        assert qmajor.is_majorized_by(x, y) and not qmajor.check_schur_inequalities(x, y).passed
    run = tool._library_paths(qmajor)["run_protocol"]
    labels = [run(np.random.default_rng([tool.SEED, i]), i)[0] for i in range(14)]
    assert [i for i, label in enumerate(labels) if label.endswith("/large")] == [6, 13]
    dens = tool._library_paths(qmajor)["random_density"]
    for i in (6, 13, 20):  # numpy-int, full-rank and random: one dim of 24..64, a rank of 1..3
        label, thunk = dens(np.random.default_rng([tool.SEED, i]), i)
        rho = thunk()
        assert label.endswith("/large") and 24 <= rho.dim <= 64
        live = np.count_nonzero(rho.eigenvalues())
        assert live == rho.dim if "full-rank" in label else 1 <= live <= 3
    for fam in tool.FAMILY_TARGETS:
        amps, _ = tool._target(rng, fam, 70, 24)
        assert 12 <= max(amps.shape) <= 72, fam
