import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from burau import laurent, spectral
from burau.cli import EXIT_CHECK_FAILED, EXIT_NUMERIC, EXIT_USAGE, main
from burau.laurent import MAX_CHARPOLY_DIM
from burau.spectral import MAX_GRID

from conftest import ladder, power


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrix:
    def test_single_generator(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "2", "1")
        assert code == 0
        assert out == "[1 - t, t]\n[1, 0]\n"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "2", "")
        assert code == 0
        assert out == "[1, 0]\n[0, 1]\n"

    def test_reduced_command(self, capsys):
        code, out, _ = run(capsys, "reduced", "-n", "2", "1")
        assert code == 0
        assert out == "[-t]\n"


class TestCharpoly:
    def test_example_1_full(self, capsys):
        code, out, _ = run(capsys, "charpoly", "-n", "3", "1 -2")
        assert code == 0
        assert out.strip() == "-1 + (-t^-1 + 2 - t)*X + (t^-1 - 2 + t)*X^2 + X^3"

    def test_example_1_reduced(self, capsys):
        code, out, _ = run(capsys, "charpoly", "-n", "3", "1 -2", "--reduced")
        assert code == 0
        assert out.strip() == "1 + (t^-1 - 1 + t)*X + X^2"

    def test_identity_reduced(self, capsys):
        code, out, _ = run(capsys, "charpoly", "-n", "3", "", "--reduced")
        assert code == 0
        assert out.strip() == "1 - 2*X + X^2"


class TestAlexander:
    def test_single_generator(self, capsys):
        code, out, _ = run(capsys, "alexander", "-n", "2", "1")
        assert code == 0
        assert out.strip() == "-t - x"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "alexander", "-n", "2", "")
        assert code == 0
        assert out.strip() == "1 - x"


class TestWideBraids:
    """Charpolys past the reach of a 2^d cofactor expansion."""

    @pytest.mark.parametrize("argv", [
        ("charpoly", "-n", "14", power(ladder(14), 2)),
        ("charpoly", "-n", "14", power(ladder(14), 2), "--reduced"),
        ("alexander", "-n", "14", power(ladder(14), 2)),
        ("charpoly", "-n", "20", power(ladder(20), 2)),
        ("alexander", "-n", "20", ladder(20)),
    ], ids=lambda argv: " ".join(argv[:3] + argv[4:]))
    def test_exact_polynomial(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        results = payload["results"]
        poly = results.get("charpoly") or results["alexander"]
        n = int(argv[2])
        degree = n - 1 if argv[0] == "alexander" or "--reduced" in argv else n
        assert len(poly["coefficients"]) == degree + 1
        lead = (-1) ** degree if argv[0] == "alexander" else 1
        assert poly["coefficients"][-1] == {"0": str(lead)}

    def test_verify_on_fourteen_strands(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "14", ladder(14), "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["results"]["all_ok"] is True

    def test_verify_gap_on_sixteen_strands(self, capsys):
        # Every Sylvester determinant of L(16) at lambda 6 lies past float
        # range: the minimum prints as null with a diagnostic, not inf.
        argv = ("verify", "-n", "16", ladder(16), "--gap-lambda", "6", "--grid", "64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["results"]["gap"]["gap_holds"] is True
        assert payload["results"]["gap"]["min_resultant_abs"] is None
        assert any("beyond float range" in line for line in payload["diagnostics"])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "inf" not in out
        assert "min |resultant| beyond float range" in out


class TestEntropyBound:
    def test_example_1_value(self, capsys):
        code, out, _ = run(capsys, "entropy-bound", "-n", "3", "1 -2",
                           "--grid", "256")
        assert code == 0
        bound = float(out.splitlines()[0].split(":")[1])
        assert bound == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-8)

    def test_identity_is_zero(self, capsys):
        code, out, _ = run(capsys, "entropy-bound", "-n", "3", "", "--grid", "64")
        assert code == 0
        assert out.splitlines()[0] == "entropy lower bound: 0"


class TestSweep:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "sweep", "-n", "2", "", "--grid", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,re_t,im_t,spectral_radius"
        assert len(lines) == 9
        for line in lines[1:]:
            theta, re_t, im_t, radius = line.split(",")
            assert float(radius) == pytest.approx(1.0, abs=1e-12)
            assert float(re_t) ** 2 + float(im_t) ** 2 == pytest.approx(1.0)

    def test_max_at_pi(self, capsys):
        code, out, _ = run(capsys, "sweep", "-n", "3", "1 -2", "--grid", "64",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["theta_star"] == pytest.approx(math.pi, abs=1e-6)


class TestGrowth:
    def test_example_1_certified(self, capsys):
        code, out, _ = run(capsys, "growth", "-n", "3", "1 -2", "--iters", "3")
        assert code == 0
        assert "exact growth rate 2.61803398875" in out

    def test_example_2_not_certified(self, capsys):
        code, out, _ = run(capsys, "growth", "-n", "4", "1 -2 -3", "--iters", "3")
        assert code == 0
        assert "no exact claim" in out

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "growth", "-n", "3", "", "--iters", "2")
        assert code == 0
        assert "exact growth rate 1" in out


class TestVerify:
    def test_example_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3", "1 -2", "--grid", "64")
        assert code == 0
        assert "FAIL" not in out

    def test_gap_lambda_reported(self, capsys, ex2):
        code, out, _ = run(capsys, "verify", "-n", "4", "1 -2 -3",
                           "--grid", "64", "--gap-lambda", "2.2966302628865387")
        assert code == 0
        assert "strict gap" in out

    def test_checks_are_factorization_then_gap(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "4", "1 -2 -3", "--grid", "64",
                           "--gap-lambda", "2.2966302628865387", "--format", "json")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert checks == [
            {"name": "charpoly factors through the reduced matrix", "ok": True},
            {"name": "strict gap vs lambda=2.29663026289", "ok": True},
        ]


class TestJsonEnvelope:
    def test_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "3", "1 -2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_envelope_fields(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "3", "1 -2",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["braid"] == "1 -2"
        assert payload["strands"] == 3
        assert payload["exponent_sum"] == 0
        assert payload["permutation"] == [3, 1, 2]
        assert set(payload) == {"braid", "strands", "exponent_sum", "permutation",
                                "results", "config", "diagnostics"}
        assert set(payload["config"]) == {"grid", "refine", "format", "iters",
                                          "budget"}

    def test_matrix_json_reconstructs(self, capsys):
        from burau.foxburau import burau_matrix
        from burau.braid import parse_braid
        from burau.laurent import LaurentPoly

        code, out, _ = run(capsys, "matrix", "-n", "3", "1 -2",
                           "--format", "json")
        payload = json.loads(out)
        entries = payload["results"]["matrix"]["entries"]
        b = burau_matrix(parse_braid("1 -2", 3))
        flat = [b.matrix.entry(i, j) for i in range(3) for j in range(3)]
        assert [LaurentPoly.from_json(e) for e in entries] == flat


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "matrix", "-n", "3", "bogus")
        assert code == 2
        assert "parse error" in err

    def test_generator_out_of_range_is_two(self, capsys):
        code, _, err = run(capsys, "matrix", "-n", "3", "5")
        assert code == 2

    def test_missing_strands_is_two(self, capsys):
        code, _, _ = run(capsys, "matrix", "1")
        assert code == 2

    def test_csv_rejected_for_matrix(self, capsys):
        code, _, err = run(capsys, "matrix", "-n", "2", "1", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_csv_rejected_for_sweep(self, capsys):
        # The text output of sweep is its CSV.
        code, _, err = run(capsys, "sweep", "-n", "2", "1", "--format", "csv")
        assert code == EXIT_USAGE
        assert "csv" in err

    def test_bad_grid_is_two(self, capsys):
        code, _, _ = run(capsys, "sweep", "-n", "2", "1", "--grid", "4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("charpoly", "-n", str(MAX_CHARPOLY_DIM + 1), ""),
        ("charpoly", "-n", str(MAX_CHARPOLY_DIM + 2), ""),
        ("charpoly", "-n", str(MAX_CHARPOLY_DIM + 2), "", "--reduced"),
        ("alexander", "-n", str(MAX_CHARPOLY_DIM + 2), ""),
        ("verify", "-n", str(MAX_CHARPOLY_DIM + 1), ""),
    ])
    def test_charpoly_past_cap_is_two(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("charpoly work past the dimension cap")

        # Packing the entries is the charpoly's first work after the cap.
        for name in ("_pack", "_dot"):
            monkeypatch.setattr(laurent, name, refuse)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert f"limited to dimension {MAX_CHARPOLY_DIM}" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "-n", "3", "1 -2"),
        ("entropy-bound", "-n", "3", "1 -2"),
        ("verify", "-n", "4", "1 -2 -3", "--gap-lambda", "2.3"),
    ], ids=lambda argv: argv[0])
    def test_grid_past_cap_is_two(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("grid work past the grid cap")

        monkeypatch.setattr(spectral, "_evaluate", refuse)
        code, _, err = run(capsys, *argv, "--grid", str(MAX_GRID + 1))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert f"grid limited to {MAX_GRID} points" in err

    def test_verify_past_cap_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "-n", str(MAX_CHARPOLY_DIM + 1), "")
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_non_convergence_is_three(self, capsys, monkeypatch):
        import burau.cli as cli

        def explode(cfg, word):
            raise np.linalg.LinAlgError("stuck")

        monkeypatch.setitem(cli._COMMANDS, "growth", explode)
        code, _, err = run(capsys, "growth", "-n", "2", "1")
        assert code == 3
        assert "non-convergence" in err

    def test_eigenvalue_failure_is_three(self, capsys, monkeypatch):
        # LinAlgError is a ValueError; it must not reach the usage handler.
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", explode)
        code, _, err = run(capsys, "entropy-bound", "-n", "3", "1 -2",
                           "--grid", "16")
        assert code == EXIT_NUMERIC
        assert err.startswith("numerical non-convergence")

    def test_tolerance_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "entropy-bound", "-n", "3", "1 -2",
                         "--grid", "64", "--tol-root", "1e-9")
        assert code == EXIT_USAGE


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


# Stdout of growth commands as the pure-Python free-group layer printed it
# (the loop kept in tests/freegroup_oracle.py): the two growth operations of
# the benchmark's exact workload, a run with cancellation, and one that
# exhausts its letter budget, each in JSON and text.
GROWTH_GOLDEN = json.loads(
    (Path(__file__).with_name("growth_cli_golden.json")).read_text())


@pytest.mark.parametrize("case", GROWTH_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_growth_output_is_byte_identical(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]


# Stdout of charpoly, charpoly --reduced and alexander as the cofactor
# expansion printed them (the oracle in tests/cofactor_det.py), on
# (1 -2)^7 in B3, L(8)^3 and A(12)^2, each in JSON and text.
EXACT_GOLDEN = json.loads(
    (Path(__file__).with_name("exact_cli_golden.json")).read_text())


@pytest.mark.parametrize("case", EXACT_GOLDEN,
                         ids=lambda case: " ".join(case["argv"][:3] + case["argv"][4:]))
def test_exact_output_is_byte_identical(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]


def test_gap_json_without_screened_points_is_strict(capsys, monkeypatch):
    import numpy as np

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    # The batched screen takes its root moduli from eigenvalues; when they
    # fail, batched and per point, every grid point is skipped.
    monkeypatch.setattr(np.linalg, "eigvals", explode)
    code, out, _ = run(capsys, "verify", "-n", "4", "1 -2 -3", "--grid", "16",
                       "--gap-lambda", "2.2966302628865387", "--format", "json")
    # No grid point carries evidence, so the gap is refused.
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["results"]["gap"]["min_resultant_abs"] is None


@pytest.mark.parametrize("argv, total", [
    (("entropy-bound", "-n", "4", "1 -2 -3", "--grid", "64"), 1),
    (("verify", "-n", "4", "1 -2 -3", "--grid", "64",
      "--gap-lambda", "2.2966302628865387"), 1),
])
def test_braid_matrix_is_built_once(capsys, monkeypatch, argv, total):
    import burau.cli
    import burau.foxburau
    import burau.spectral
    from burau.braid import parse_braid

    build = burau.foxburau.burau_matrix
    sources = []

    def counting(source):
        sources.append(source)
        return build(source)

    for module in (burau.foxburau, burau.spectral, burau.cli):
        monkeypatch.setattr(module, "burau_matrix", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert sources.count(parse_braid("1 -2 -3", 4)) == 1
    assert len(sources) == total


def test_reduced_charpoly_is_taken_once(capsys, monkeypatch):
    import burau.cli
    import burau.laurent
    import burau.spectral

    exact = burau.laurent.charpoly
    dims = []

    def counting(m):
        dims.append(m.dim)
        return exact(m)

    for module in (burau.laurent, burau.spectral, burau.cli):
        monkeypatch.setattr(module, "charpoly", counting)
    code, _, _ = run(capsys, "verify", "-n", "4", "1 -2 -3",
                     "--gap-lambda", "2.3", "--grid", "64")
    assert code == 0
    # The full matrix's, then the reduced matrix's, which the gap check reuses.
    assert dims == [4, 3]


def test_deterministic_output(capsys):
    first = run(capsys, "sweep", "-n", "3", "1 -2", "--grid", "32")
    second = run(capsys, "sweep", "-n", "3", "1 -2", "--grid", "32")
    assert first == second
