"""The identity harness, ``tools/identity.py``: the one determinism pin for the library and the CLI.

Two records of one tree, made in one process, must be byte-identical; ``--compare`` must pass
equal records, and tell a moved value from a changed decision and from a missing path.  Each
path run twice in a row is ``tests/test_determinism.py``, on the same table.
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
    assert tool.main(["--compare", a, b]) == 0  # the exit code covers decisions only
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 14 + 9
    for name, (fixtures, byte_equal, diff, decisions) in rows.items():
        assert (byte_equal, diff, decisions) == (fixtures, "0", "equal"), name
        assert int(fixtures) == (2 if name.startswith("cli:") else 3)


@pytest.fixture
def records(tmp_path):
    """Two equal library-only records A and B; a test edits B."""
    tool = _tool()
    a, b = tmp_path / "A", tmp_path / "B"
    assert tool.main(["record", str(a), "--fixtures", "6", "--cli-fixtures", "0"]) == 0
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


def test_a_record_compares_byte_equal_with_itself(records, capsys):
    """``--compare``'s passing case, the baseline the tests below edit: equal records read every
    fixture byte-equal, max |diff| ``0`` and decisions ``equal``, print no detail line, exit 0."""
    tool, a, b = records
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert len(rows) == 14 + 9
    for name, (fixtures, byte_equal, diff, decisions) in rows.items():
        count = "0" if name.startswith("cli:") else "6"  # the records hold no CLI fixture
        assert (fixtures, byte_equal, diff, decisions) == (count, count, "0", "equal"), name
    assert not any(line.startswith(("  moved:", "  decision:")) for line in out.splitlines())


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


def test_compare_reports_a_moved_last_bit_and_passes(records, capsys):
    tool, a, b = records

    def one_ulp(fixtures, values):
        v = values[0]
        v[0] = complex(np.nextafter(v[0].real, np.inf), v[0].imag)
        return [0]

    _edit(b / "hermitian_eig.npz", one_ulp)
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    fixtures, byte_equal, diff, decisions = _rows(out)["hermitian_eig"]
    assert (int(fixtures), int(byte_equal), decisions) == (6, 5, "equal")
    assert 0 < float(diff) < 1e-15
    assert any(line.startswith("  moved: hermitian_eig ") and "in 1 fixtures" in line
               for line in out.splitlines())


def test_a_last_bit_is_a_value_and_a_message_is_a_decision():
    tool = _tool()
    one_ulp = np.nextafter(0.5, 1.0)
    base, v_base = tool._fixture_record("f", {"p": 0.5, "k": 3, "msg": "ok"})
    moved, v_moved = tool._fixture_record("f", {"p": one_ulp, "k": 3, "msg": "ok"})
    assert base["decisions"] == moved["decisions"] and base["digest"] != moved["digest"]
    assert tool._max_diff(v_base, v_moved) == one_ulp - 0.5
    for other in ({"p": 0.5, "k": 4, "msg": "ok"}, {"p": 0.5, "k": 3, "msg": "no"}, {"p": 0.5, "k": 3}):
        assert tool._fixture_record("f", other)[0]["decisions"] != base["decisions"]
