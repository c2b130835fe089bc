import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qmajor.cli import (
    _DEFAULT_TOLS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REJECTED,
    _decode,
    _decode_entries,
    _read,
    encode_entries,
    main,
    parse_document,
)
from qmajor.bipartite import BipartiteState
from qmajor.ensembles import Ensemble
from qmajor.numkernel import TOL_HERM, TOL_PROB, TOL_RECON, DensityMatrix, ValidationError

R = np.sqrt(0.5)
RHO = {"kind": "density", "dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
BELL = {"kind": "bipartite", "dimA": 2, "dimB": 2, "amplitudes": [[[R, 0], [0, 0]], [[0, 0], [R, 0]]]}
ENSEMBLE = {"kind": "ensemble", "weights": [0.5, 0.5], "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}


def test_default_tolerances_are_the_library_constants():
    assert _DEFAULT_TOLS == {"herm": TOL_HERM, "major": TOL_PROB, "recon": TOL_RECON}


def _parse(path, expect):
    """Read and decode one input file as a job does, at the default tolerances."""
    return _decode(_read(path), path, dict(_DEFAULT_TOLS), expect)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def write(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


@pytest.fixture
def files(write, tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    return {
        "rho": write("rho.json", RHO),
        "p3": write("p3.json", {"kind": "probvec", "weights": [1 / 3, 1 / 3, 1 / 3]}),
        "p_hot": write("p_hot.json", {"kind": "probvec", "weights": [0.75, 0.25]}),
        "p_bad": write("p_bad.json", {"kind": "probvec", "weights": [0.6, 0.6]}),
        "x": write("x.json", {"kind": "probvec", "weights": [0.5, 0.5]}),
        "y": write("y.json", {"kind": "probvec", "weights": [1.0, 0.0]}),
        "bell": write("bell.json", BELL),
        "broken": str(tmp_path / "broken.json"),
        "dir": tmp_path,
    }


class TestParseInput:
    def test_probvec(self, files):
        w = _parse(files["x"], "probvec")
        assert np.array_equal(w, [0.5, 0.5])

    def test_density(self, files):
        rho = _parse(files["rho"], "density")
        assert isinstance(rho, DensityMatrix)
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_bad_weights_name_the_invariant(self, files):
        with pytest.raises(ValidationError, match="sum"):
            _parse(files["p_bad"], "probvec")

    def test_parse_error_carries_location(self, files):
        with pytest.raises(ValidationError, match="line 1"):
            _parse(files["broken"], "probvec")

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ValidationError, match="expected kind 'probvec', got 'mystery'"):
            _parse(str(p), "probvec")
        # A kind no command declares reaches the parser's last branch.
        with pytest.raises(ValidationError, match="unknown kind 'mystery'"):
            _parse(str(p), "mystery")

    def test_declared_dim_mismatch(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({
            "kind": "density", "dim": 3,
            "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        }))
        with pytest.raises(ValidationError, match="declared dim"):
            _parse(str(p), "density")


class TestExitCodes:
    def test_success(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [
            "ensemble-synth", "-i", files["rho"], "-i", files["p3"], "-o", str(out),
        ])
        assert res.exit_code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert report["version"]
        assert len(report["result"]["ensemble"]["weights"]) == 3
        assert report["result"]["reconstruction_error"] <= 1e-8
        assert all(len(i["sha256"]) == 64 for i in report["inputs"])

    def test_subnormal_weight_succeeds(self, runner, write, tmp_path):
        out = tmp_path / "rep.json"
        rho = write("rho.json", dict(RHO, entries=[[[0.6, 0], [0, 0]], [[0, 0], [0.4, 0]]]))
        p = write("p.json", {"kind": "probvec", "weights": [0.6, 0.4, 5e-324]})
        res = runner.invoke(main, ["ensemble-synth", "-i", rho, "-i", p, "-o", str(out)])
        assert res.exit_code == EXIT_OK
        assert json.loads(out.read_text())["result"]["reconstruction_error"] <= 1e-8

    def test_domain_rejection(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [
            "ensemble-synth", "-i", files["rho"], "-i", files["p_hot"], "-o", str(out),
        ])
        assert res.exit_code == EXIT_REJECTED
        report = json.loads(out.read_text())
        assert report["status"] == "rejected"
        assert report["reason"]["detail"] == "majorization violated at k=1: 0.75 > 0.5"
        assert report["reason"]["k"] == 1

    def test_input_error_semantic(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [
            "ensemble-synth", "-i", files["rho"], "-i", files["p_bad"], "-o", str(out),
        ])
        assert res.exit_code == EXIT_INPUT
        assert json.loads(out.read_text())["status"] == "error"

    def test_input_error_malformed(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [
            "schmidt", "-i", files["broken"], "-o", str(out),
        ])
        assert res.exit_code == EXIT_INPUT

    def test_input_error_raised_inside_job(self, runner, files, tmp_path):
        # the input parses, the job itself rejects d=0 with a ValidationError
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [
            "protocol-run", "-i", files["bell"], "--d", "0", "-o", str(out),
        ])
        assert res.exit_code == EXIT_INPUT
        report = json.loads(out.read_text())
        assert report["status"] == "error"
        assert report["reason"]["class"] == "input"
        assert "dimension must be positive" in report["reason"]["detail"]


class TestExitContract:
    """Inputs that once escaped as tracebacks: each exits 2 and writes a report."""

    def assert_input_error(self, runner, args, tmp_path, detail):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, [*args, "-o", str(out)])
        assert res.exit_code == EXIT_INPUT, res.output
        report = json.loads(out.read_text())
        assert report["status"] == "error"
        assert report["reason"]["class"] == "input"
        assert detail in report["reason"]["detail"]
        return report

    def test_non_integer_declared_dimension(self, runner, files, write, tmp_path):
        doc = json.loads((files["dir"] / "bell.json").read_text())
        bad = write("dim.json", dict(doc, dimA="x"))
        self.assert_input_error(runner, ["schmidt", "-i", bad], tmp_path, "dimA must be an integer")

    @pytest.mark.parametrize("field, command", [
        ("dimA", "schmidt"), ("dimB", "schmidt"), ("dim", "ensemble-synth"),
    ])
    def test_overflowing_declared_dimension(self, runner, files, tmp_path, field, command):
        # JSON 1e400 decodes to inf, a float, which no declared size may be
        source = files["rho"] if field == "dim" else files["bell"]
        doc = dict(json.loads(Path(source).read_text()), **{field: 0})
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc).replace(f'"{field}": 0', f'"{field}": 1e400'))
        args = [command, "-i", str(bad)] + (["-i", files["p3"]] if command == "ensemble-synth" else [])
        self.assert_input_error(runner, args, tmp_path, f"{field} must be an integer")

    def test_negative_seed(self, runner, files, tmp_path):
        report = self.assert_input_error(
            runner, ["protocol-run", "-i", files["bell"], "--d", "2", "--seed", "-1"],
            tmp_path, "seed must be non-negative",
        )
        assert report["seed"] == -1

    @pytest.mark.parametrize("mode", [["--seed", "0"], ["--exhaustive"]])
    def test_dimension_past_memory(self, runner, files, tmp_path, mode):
        # d = 2^24 passes the dimension ceiling, and the 4 PiB padded target fails to allocate at once
        report = self.assert_input_error(
            runner, ["protocol-run", "-i", files["bell"], "--d", str(2**24), *mode],
            tmp_path, "Unable to allocate",
        )
        assert "result" not in report

    def test_scalar_statevec(self, runner, write, tmp_path):
        bad = write("sv.json", {"kind": "statevec", "amplitudes": 3})
        self.assert_input_error(runner, ["schmidt", "-i", bad], tmp_path, "expected kind 'bipartite'")
        with pytest.raises(ValidationError):
            _parse(bad, "statevec")

    def test_string_weights(self, runner, files, write, tmp_path):
        bad = write("w.json", {"kind": "probvec", "weights": "ab"})
        self.assert_input_error(
            runner, ["majorize-check", "-i", bad, "-i", files["y"]], tmp_path, "could not convert"
        )

    def test_non_numeric_ensemble_weight(self, runner, files, write, tmp_path):
        bad = write("ens.json", {
            "kind": "ensemble", "weights": ["w", 0.5],
            "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        })
        self.assert_input_error(
            runner, ["ensemble-verify", "-i", bad, "-i", files["rho"]], tmp_path, "could not convert"
        )

    @pytest.mark.parametrize("flags", [["", "x"], [0, 1], [None, False]])
    def test_non_bool_synthetic_flags(self, runner, files, write, tmp_path, flags):
        bad = write("ens.json", {
            "kind": "ensemble", "weights": [1.0, 0.0],
            "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "synthetic": flags,
        })
        self.assert_input_error(
            runner, ["ensemble-verify", "-i", bad, "-i", files["rho"]], tmp_path,
            "synthetic flags: could not convert",
        )

    def test_probvec_given_to_schmidt(self, runner, files, tmp_path):
        self.assert_input_error(
            runner, ["schmidt", "-i", files["x"]], tmp_path, "expected kind 'bipartite', got 'probvec'"
        )

    def test_nan_tolerance(self, runner, files, tmp_path):
        report = self.assert_input_error(
            runner, ["majorize-check", "-i", files["x"], "-i", files["y"], "--tol-major", "nan"],
            tmp_path, "tolerance 'major'",
        )
        assert report["tolerances"]["major"] == "nan"

    def test_negative_tolerance(self, runner, files, tmp_path):
        self.assert_input_error(
            runner, ["schur-report", "-i", files["x"], "-i", files["y"], "--tol-major", "-1e-9"],
            tmp_path, "tolerance 'major'",
        )

    def test_wrong_input_count(self, runner, files, tmp_path):
        self.assert_input_error(
            runner, ["majorize-check", "-i", files["x"]], tmp_path, "takes 2 input(s)"
        )

    @pytest.mark.parametrize("command, extra", [
        ("schmidt", []), ("corollary4", ["-i", "p_hot"]), ("protocol-run", ["--d", "2"]),
    ])
    def test_non_unit_bipartite_state(self, runner, files, write, tmp_path, command, extra):
        # The library call of each bipartite command checks the unit norm.
        r = 0.9 * np.sqrt(0.5)
        bad = write("norm.json", {
            "kind": "bipartite", "dimA": 2, "dimB": 2,
            "amplitudes": [[[r, 0], [0, 0]], [[0, 0], [r, 0]]],
        })
        args = [command, "-i", bad, *(files.get(e, e) for e in extra)]
        self.assert_input_error(runner, args, tmp_path, "norm")

    def test_missing_input_file(self, runner, files, tmp_path):
        missing = str(files["dir"] / "missing.json")
        self.assert_input_error(runner, ["schmidt", "-i", missing], tmp_path, "missing.json")

    @pytest.mark.parametrize("command, doc, detail", [
        ("ensemble-synth", dict(RHO, dim=2.7), "dim must be an integer"),
        ("ensemble-synth", dict(RHO, dim="2"), "dim must be an integer"),
        ("ensemble-synth", {"kind": "density", "dim": True, "entries": [[[1, 0]]]},
         "dim must be an integer"),
        ("schmidt", dict(BELL, dimA=2.9), "dimA must be an integer"),
        ("ensemble-synth", dict(RHO, entries=[[["0.5", "0"], [0, 0]], [[0, 0], [0.5, 0]]]),
         "entries: could not convert"),
        ("schmidt", dict(BELL, amplitudes=[[[str(R), "0"], [0, 0]], [[0, 0], [R, 0]]]),
         "amplitudes: could not convert"),
        ("ensemble-verify", dict(ENSEMBLE, states=[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]),
         "states: could not convert"),
        ("ensemble-verify", dict(ENSEMBLE, weights=["0.5", "0.5"]), "weights: could not convert"),
    ], ids=["dim-float", "dim-string", "dim-bool", "dimA-float", "density-string",
            "bipartite-string", "ensemble-state-string", "ensemble-weight-string"])
    def test_fields_read_by_the_library_rules(self, runner, files, write, tmp_path,
                                              command, doc, detail):
        # A declared size must be an integer, and no numeric field may be a string.
        bad = write("bad.json", doc)
        other = {"ensemble-synth": ["-i", files["p3"]], "ensemble-verify": ["-i", files["rho"]]}
        args = [command, "-i", bad, *other.get(command, [])]
        self.assert_input_error(runner, args, tmp_path, detail)

    def test_missing_field(self, runner, files, write, tmp_path):
        bad = write("w.json", {"kind": "probvec"})
        self.assert_input_error(
            runner, ["majorize-check", "-i", bad, "-i", files["y"]], tmp_path, "missing field 'weights'"
        )

    def test_entries_that_are_not_pairs(self, runner, files, write, tmp_path):
        bad = write("rho.json", dict(RHO, entries=[[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]]))
        self.assert_input_error(
            runner, ["ensemble-synth", "-i", bad, "-i", files["p3"]], tmp_path,
            "complex entries must be [re, im] pairs",
        )

    @pytest.mark.parametrize("amplitudes", [[["0.5", "0"], ["0.5", "0"]], []], ids=["string", "empty"])
    def test_statevec_read_by_the_library_rules(self, amplitudes):
        # No command takes a statevec, so the parser is called directly.
        with pytest.raises(ValidationError, match="amplitudes"):
            parse_document({"kind": "statevec", "amplitudes": amplitudes}, "sv", dict(_DEFAULT_TOLS),
                           "statevec")


class TestCommandFlags:
    """Each command takes exactly the tolerance flags its job applies."""

    FLAGS = {
        "majorize-check": ["--tol-major"],
        "majorize-decompose": ["--tol-major"],
        "schur-report": ["--tol-major"],
        "ensemble-synth": ["--tol-herm"],
        "ensemble-verify": ["--tol-herm", "--tol-recon"],
        "schmidt": [],
        "corollary4": [],
        "protocol-run": ["--d", "--exhaustive", "--seed"],
    }

    def test_option_names(self):
        assert sorted(main.commands) == sorted(self.FLAGS)
        for name, flags in self.FLAGS.items():
            opts = sorted(o for p in main.commands[name].params for o in p.opts)
            assert opts == sorted(["--input", "-i", "--output", "-o", *flags]), name

    @pytest.mark.parametrize("args, keys", [
        (["majorize-check", "-i", "x", "-i", "y"], ["major"]),
        (["majorize-decompose", "-i", "x", "-i", "y"], ["major"]),
        (["schur-report", "-i", "x", "-i", "y"], ["major"]),
        (["ensemble-synth", "-i", "rho", "-i", "p3"], ["herm"]),
        (["schmidt", "-i", "bell"], []),
        (["corollary4", "-i", "bell", "-i", "x"], []),
        (["protocol-run", "-i", "bell", "--d", "2"], []),
    ])
    def test_tolerances_block_lists_the_flags(self, runner, files, args, keys):
        args = [files.get(a, a) for a in args]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_OK, res.output
        tolerances = json.loads(res.output)["tolerances"]
        assert tolerances == {k: _DEFAULT_TOLS[k] for k in keys}

    @pytest.mark.parametrize("command", ["majorize-check", "majorize-decompose", "schur-report"])
    def test_tol_major_decides(self, runner, write, command):
        # x exceeds y's largest entry by 5e-4
        x = write("x.json", {"kind": "probvec", "weights": [0.5005, 0.4995]})
        y = write("y.json", {"kind": "probvec", "weights": [0.5, 0.5]})
        args = [command, "-i", x, "-i", y]
        assert runner.invoke(main, args).exit_code == EXIT_REJECTED
        assert runner.invoke(main, [*args, "--tol-major", "1e-3"]).exit_code == EXIT_OK

    @pytest.mark.parametrize("command", ["ensemble-synth", "ensemble-verify"])
    def test_tol_herm_decides(self, runner, files, write, command):
        rho = write("rho.json", {
            "kind": "density", "entries": [[[0.5 + 1e-6, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        })
        ens = write("ens.json", {
            "kind": "ensemble", "weights": [0.5, 0.5], "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        })
        args = ["ensemble-synth", "-i", rho, "-i", files["p3"]] if command == "ensemble-synth" else [
            "ensemble-verify", "-i", ens, "-i", rho]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_INPUT
        assert "trace" in json.loads(res.output)["reason"]["detail"]
        assert runner.invoke(main, [*args, "--tol-herm", "1e-3"]).exit_code == EXIT_OK

    def test_tol_recon_decides(self, runner, write):
        # the audit's Frobenius error is sqrt(2) * 5e-7
        rho = write("rho.json", {
            "kind": "density", "entries": [[[0.5 + 5e-7, 0], [0, 0]], [[0, 0], [0.5 - 5e-7, 0]]],
        })
        ens = write("ens.json", {
            "kind": "ensemble", "weights": [0.5, 0.5], "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        })
        args = ["ensemble-verify", "-i", ens, "-i", rho]
        for extra, passed in (([], False), (["--tol-recon", "1e-5"], True)):
            res = runner.invoke(main, [*args, *extra])
            assert res.exit_code == EXIT_OK
            report = json.loads(res.output)
            assert report["result"]["passed"] is passed
            assert sorted(report["tolerances"]) == ["herm", "recon"]

    def test_flag_not_taken_is_a_usage_error(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, ["schmidt", "-i", files["bell"], "--tol-recon", "1e-3", "-o", str(out)])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not out.exists()


class TestCommands:
    def test_majorize_check_holds(self, runner, files):
        res = runner.invoke(main, ["majorize-check", "-i", files["x"], "-i", files["y"]])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["result"]["holds"] is True

    def test_majorize_check_rejects(self, runner, files):
        res = runner.invoke(main, ["majorize-check", "-i", files["y"], "-i", files["x"]])
        assert res.exit_code == EXIT_REJECTED

    def test_majorize_decompose(self, runner, files):
        res = runner.invoke(main, ["majorize-decompose", "-i", files["x"], "-i", files["y"]])
        assert res.exit_code == EXIT_OK
        result = json.loads(res.output)["result"]
        assert result["chain"]["transforms"] == [{"i": 0, "k": 1, "t": 0.5}]
        w = result["witness"]["orthogonal"]["entries"]
        r = np.sqrt(0.5)
        assert w[0][0][0] == pytest.approx(r)
        assert w[0][1][0] == pytest.approx(-r)

    def test_majorize_decompose_writes_a_zero_t_unsigned(self, runner, write):
        # The last step averages onto a target of -0.0; its quotient is -0.0 and its t is +0.0.
        x = write("x.json", {"kind": "probvec", "weights": [0.7, 0.3, -0.0, -0.0]})
        y = write("y.json", {"kind": "probvec", "weights": [0.9, 0.1]})
        res = runner.invoke(main, ["majorize-decompose", "-i", x, "-i", y])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["result"]["chain"]["transforms"][-1] == {"i": 2, "k": 3, "t": 0.0}
        assert '"t": -0.0' not in res.output and '"t": 0.0' in res.output

    def test_schmidt(self, runner, files):
        res = runner.invoke(main, ["schmidt", "-i", files["bell"]])
        assert res.exit_code == EXIT_OK
        result = json.loads(res.output)["result"]
        assert result["coefficients"]["weights"] == pytest.approx([0.5, 0.5])
        assert len(result["basis_a"]) == 2

    def test_corollary4(self, runner, files):
        res = runner.invoke(main, ["corollary4", "-i", files["bell"], "-i", files["x"]])
        assert res.exit_code == EXIT_OK

    def test_schur_report(self, runner, files):
        res = runner.invoke(main, ["schur-report", "-i", files["x"], "-i", files["y"]])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["result"]["passed"] is True

    def test_schur_report_records_a_failed_comparison(self, runner, write):
        # Majorized within the default tolerance, so a report, exit 0, with the failure in passed.
        x = write("x.json", {"kind": "probvec", "weights": [1.0, 0.0]})
        y = write("y.json", {"kind": "probvec", "weights": [1 - 1e-16, 1e-16]})
        res = runner.invoke(main, ["schur-report", "-i", x, "-i", y])
        assert res.exit_code == EXIT_OK
        report = json.loads(res.output)
        assert (report["status"], report["result"]["passed"]) == ("ok", False)
        entry = {e["name"]: e for e in report["result"]["entries"]}["sum[neg_sqrt]"]
        assert (entry["value_x"], entry["value_y"]) == (-1.0, -1.00000001)

    def test_schur_report_rejects_a_pair_that_is_not_majorized(self, runner, files):
        res = runner.invoke(main, ["schur-report", "-i", files["y"], "-i", files["x"]])
        assert res.exit_code == EXIT_REJECTED
        report = json.loads(res.output)
        assert report["status"] == "rejected"
        assert report["reason"] == {
            "class": "domain", "detail": "majorization violated at k=1: 1 > 0.5", "k": 1, "lhs": 1.0, "rhs": 0.5,
        }

    def test_ensemble_verify_round_trip(self, runner, files, tmp_path):
        synth_out = tmp_path / "synth.json"
        runner.invoke(main, [
            "ensemble-synth", "-i", files["rho"], "-i", files["p3"], "-o", str(synth_out),
        ])
        ens_file = tmp_path / "ens.json"
        ens_file.write_text(json.dumps(json.loads(synth_out.read_text())["result"]["ensemble"]))
        res = runner.invoke(main, [
            "ensemble-verify", "-i", str(ens_file), "-i", files["rho"],
        ])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["result"]["passed"] is True

    def test_protocol_run(self, runner, files):
        res = runner.invoke(main, [
            "protocol-run", "-i", files["bell"], "--d", "2", "--seed", "42",
        ])
        assert res.exit_code == EXIT_OK
        tr = json.loads(res.output)["result"]["transcript"]
        assert tr["fidelity"] >= 1 - 1e-9
        assert tr["bits_sent"] == 2
        assert tr["seed"] == 42

    def test_protocol_exhaustive(self, runner, files):
        res = runner.invoke(main, [
            "protocol-run", "-i", files["bell"], "--d", "2", "--exhaustive",
        ])
        assert res.exit_code == EXIT_OK
        transcripts = json.loads(res.output)["result"]["transcripts"]
        assert len(transcripts) == 4
        assert all(t["fidelity"] >= 1 - 1e-9 for t in transcripts)


class TestDeterminism:
    def test_identical_jobs_byte_identical_reports(self, runner, files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            res = runner.invoke(main, [
                "protocol-run", "-i", files["bell"], "--d", "2",
                "--seed", "42", "-o", str(out),
            ])
            assert res.exit_code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_synth_reports_byte_identical(self, runner, files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            runner.invoke(main, [
                "ensemble-synth", "-i", files["rho"], "-i", files["p3"], "-o", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()


class TestRoundTrip:
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_decoder_inverts_encode_entries_bit_for_bit(self, ndim):
        # signed zeros, subnormals, both ends of the float range and integer values
        values = np.array([-0.0, 0.0, 5e-324, -1e-310, 1e308, -1e308, 3.0, -7.0])
        a = np.empty((values.size, values.size), dtype=complex)
        a.real, a.imag = values[:, None], values[None, :]
        if ndim == 1:
            a = a.reshape(-1)
        back = _decode_entries(json.loads(json.dumps(encode_entries(a))), "entries", a.ndim)
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()

    def test_decoder_reads_json_integers_as_floats(self):
        back = _decode_entries([[3, -7], [0, 1]], "entries", 1)
        assert back.tobytes() == np.array([complex(3, -7), complex(0, 1)]).tobytes()

    def test_report_fragments_parse_back_exactly(self, runner, files, tmp_path):
        out = tmp_path / "rep.json"
        runner.invoke(main, [
            "ensemble-synth", "-i", files["rho"], "-i", files["p3"], "-o", str(out),
        ])
        report = json.loads(out.read_text())
        frag = report["result"]["ensemble"]
        ens = parse_document(frag, "fragment", dict(_DEFAULT_TOLS), "ensemble")
        assert isinstance(ens, Ensemble)
        # exact float round-trip through the report
        assert ens.weights.tolist() == frag["weights"]
        redump = json.loads(json.dumps(frag))
        assert redump == frag

    def test_bipartite_fragment_round_trip(self, runner, files):
        res = runner.invoke(main, [
            "protocol-run", "-i", files["bell"], "--d", "2", "--seed", "1",
        ])
        frag = json.loads(res.output)["result"]["transcript"]["final_state"]
        psi = parse_document(frag, "fragment", dict(_DEFAULT_TOLS), "bipartite")
        assert isinstance(psi, BipartiteState)
        back = [[[z.real, z.imag] for z in row] for row in psi.amplitudes]
        assert back == frag["amplitudes"]
