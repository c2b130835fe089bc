"""The identity harness, ``tools/identity.py``: it records every path and tells values from decisions."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_compares_byte_equal_with_itself(tmp_path, capsys):
    tool = _tool()
    assert tool.main(["record", str(tmp_path), "--fixtures", "3", "--cli-fixtures", "2"]) == 0
    assert tool.main(["--compare", str(tmp_path), str(tmp_path)]) == 0
    rows = [line.rsplit(None, 4) for line in capsys.readouterr().out.splitlines()
            if line.endswith(("equal", "DIFFER"))]
    assert len(rows) == 14 + 9
    for name, fixtures, byte_equal, diff, decisions in rows:
        assert (byte_equal, diff, decisions) == (fixtures, "0", "equal"), name
        assert int(fixtures) == (2 if name.startswith("cli:") else 3)


def test_a_last_bit_is_a_value_and_a_message_is_a_decision():
    tool = _tool()
    one_ulp = np.nextafter(0.5, 1.0)
    base, v_base = tool._fixture_record("f", {"p": 0.5, "k": 3, "msg": "ok"})
    moved, v_moved = tool._fixture_record("f", {"p": one_ulp, "k": 3, "msg": "ok"})
    assert base["decisions"] == moved["decisions"] and base["digest"] != moved["digest"]
    assert tool._max_diff(v_base, v_moved) == one_ulp - 0.5
    for other in ({"p": 0.5, "k": 4, "msg": "ok"}, {"p": 0.5, "k": 3, "msg": "no"}, {"p": 0.5, "k": 3}):
        assert tool._fixture_record("f", other)[0]["decisions"] != base["decisions"]
