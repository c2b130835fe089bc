"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from qmajor.bipartite import corollary4_decompose, embed_state, schmidt
from qmajor.cli import EXIT_INPUT, EXIT_OK, EXIT_REJECTED, main as cli_main
from qmajor.ensembles import mixture_matrix, synthesize_ensemble, uniform_ensemble
from qmajor.majorize import (
    MajorizationError,
    check_schur_inequalities,
    is_majorized_by,
    t_transform_chain,
    horn_orthogonal,
    unitary_to_stochastic,
)
from qmajor.numkernel import random_density, random_unitary
from qmajor.protocol import build_measurement, enumerate_protocol, weyl_op, WeylPair

from conftest import mix_down, random_bipartite, rank_of, shannon_entropy, von_neumann_entropy


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def synthesis_instances():
    """200 random (rho, p, ensemble) triples shared by criteria 1 and 5."""
    rng = np.random.default_rng(1)
    instances = []
    for i in range(200):
        dim = int(rng.integers(2, 17))
        rank = int(rng.integers(1, dim + 1))
        rho = random_density(dim, rank, seed=int(rng.integers(2**31)))
        extra = int(rng.integers(0, 3))
        p = mix_down(np.concatenate([rho.eigenvalues(), np.zeros(extra)]), rng)
        instances.append((rho, p, synthesize_ensemble(rho, p)))
    return instances


def test_criterion_1_synthesis_round_trip(synthesis_instances):
    with criterion(1, "ensemble synthesis round trip at 1e-8 over 200 instances"):
        start = time.perf_counter()
        for rho, p, ensemble in synthesis_instances:
            assert np.array_equal(ensemble.weights, np.clip(p, 0.0, None))
            err = np.linalg.norm(mixture_matrix(ensemble) - rho.matrix)
            assert err <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_2_orthogonal_witness():
    with criterion(2, "orthogonal witness: W orthogonal at 1e-10, D y = x at 1e-9, length <= d-1"):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 33))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            witness = horn_orthogonal(x, y)
            w = witness.orthogonal
            assert np.linalg.norm(w @ w.T - np.eye(d)) <= 1e-10
            assert np.max(np.abs(witness.doubly_stochastic @ y - x)) <= 1e-9
            assert len(t_transform_chain(x, y)) <= d - 1


def test_criterion_3_forward_mixing():
    with criterion(3, "squared unitary moduli always disorder: x = D y majorized at 1e-10"):
        rng = np.random.default_rng(3)
        for i in range(200):
            d = int(rng.integers(2, 17))
            u = random_unitary(d, seed=int(rng.integers(2**31)))
            y = rng.dirichlet(np.ones(d))
            x = unitary_to_stochastic(u) @ y
            assert is_majorized_by(x, y, tol=1e-10)


def test_criterion_4_uniform_ensembles():
    with criterion(4, "uniform ensembles exist for m >= rank and fail below"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            rho = random_density(dim, rank, seed=int(rng.integers(2**31)))
            r = rank_of(rho)
            assert r == rank
            for m in range(r, r + 5):
                ensemble = uniform_ensemble(rho, m)
                assert len(ensemble) == m
                assert np.linalg.norm(mixture_matrix(ensemble) - rho.matrix) <= 1e-8
            if r >= 2:
                with pytest.raises(MajorizationError):
                    uniform_ensemble(rho, r - 1)


def test_criterion_5_entropy_and_schur(synthesis_instances):
    with criterion(5, "mixing entropy >= state entropy and every Schur-convex comparison holds"):
        for rho, p, ensemble in synthesis_instances:
            h = shannon_entropy(ensemble.weights)
            s = von_neumann_entropy(rho)
            assert h >= s - 1e-9
            report = check_schur_inequalities(ensemble.weights, rho.eigenvalues(), tol=1e-9)
            assert report.passed


def test_criterion_6_bipartite_rewriting():
    with criterion(6, "bipartite rewriting reconstructs at 1e-8 and rejects with the partial sum"):
        rng = np.random.default_rng(6)
        for i in range(100):
            dim_a = int(rng.integers(2, 9))
            dim_b = int(rng.integers(2, 9))
            psi = random_bipartite(dim_a, dim_b, rng)
            p = schmidt(psi).coefficients
            extra = int(rng.integers(0, 3))
            q = mix_down(np.concatenate([p, np.zeros(extra)]), rng)
            dec = corollary4_decompose(psi, q)
            target = embed_state(psi, max(dim_a, q.size), dim_b)
            assert np.linalg.norm(dec.reconstruct() - target.amplitudes) <= 1e-8
            if i % 10 == 0:
                # overload the top weight so the first partial sum fails
                hot = np.zeros(q.size)
                hot[0] = p[0] + (1 - p[0]) / 2 + 1e-6
                hot[1:] = (1 - hot[0]) / (q.size - 1) if q.size > 1 else 0.0
                if hot[0] <= 1.0 and q.size > 1:
                    with pytest.raises(MajorizationError) as exc:
                        corollary4_decompose(psi, hot)
                    assert exc.value.k >= 1
                    assert exc.value.lhs > exc.value.rhs


def test_criterion_7_protocol_branches():
    with criterion(7, "every protocol branch reaches the target; uniform outcomes; exact bill of bits"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 8):
            expected_bits = (d * d - 1).bit_length()
            for _ in range(20):
                target = random_bipartite(d, d, rng)
                transcripts = enumerate_protocol(target, d)
                assert len(transcripts) == d * d
                for tr in transcripts:
                    assert tr.fidelity >= 1 - 1e-9
                    assert tr.bits_sent == expected_bits
                    assert abs(tr.outcome_probability - 1 / d**2) <= 1e-10
                # completeness of the constructed measurement
                dec = corollary4_decompose(target, np.full(d, 1.0 / d))
                meas = build_measurement(dec.states_b, d)
                total = sum(
                    meas.operators[s, t].conj().T @ meas.operators[s, t]
                    for s in range(d)
                    for t in range(d)
                )
                assert np.linalg.norm(total - np.eye(meas.dim_b)) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_8_twirl_identity():
    with criterion(8, "shift/clock twirl equals d * tr(A) * I at 1e-10 (factor d included)"):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                a = a + a.conj().T
                acc = np.zeros((d, d), dtype=complex)
                for s in range(d):
                    for t in range(d):
                        u = weyl_op(WeylPair(d=d, s=s, t=t))
                        acc += u.conj().T @ a @ u
                assert np.linalg.norm(acc - d * np.trace(a) * np.eye(d)) <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical jobs give byte-identical reports; all exit classes exercised"):
        runner = CliRunner()

        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        rho = write("rho.json", {
            "kind": "density", "dim": 2,
            "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        })
        p3 = write("p3.json", {"kind": "probvec", "weights": [1 / 3, 1 / 3, 1 / 3]})
        hot = write("hot.json", {"kind": "probvec", "weights": [0.75, 0.25]})
        r = np.sqrt(0.5)
        bell = write("bell.json", {
            "kind": "bipartite", "dimA": 2, "dimB": 2,
            "amplitudes": [[[r, 0], [0, 0]], [[0, 0], [r, 0]]],
        })
        broken = tmp_path / "broken.json"
        broken.write_text("{truncated")

        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = runner.invoke(cli_main, [
                "protocol-run", "-i", bell, "--d", "2", "--seed", "42", "-o", str(out),
            ])
            assert res.exit_code == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

        for name in ("c.json", "d.json"):
            out = tmp_path / name
            res = runner.invoke(cli_main, [
                "ensemble-synth", "-i", rho, "-i", p3, "-o", str(out),
            ])
            assert res.exit_code == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[2] == reports[3]

        res = runner.invoke(cli_main, ["ensemble-synth", "-i", rho, "-i", hot])
        assert res.exit_code == EXIT_REJECTED
        res = runner.invoke(cli_main, ["schmidt", "-i", str(broken)])
        assert res.exit_code == EXIT_INPUT
