"""Tests of the benchmark's oracle and checker.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py

The oracle must reproduce the paper's closed forms and agree with `burau`'s
conventions; the checker must accept real program outputs and reject
perturbed ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time

import numpy as np
import pytest

import check
import oracle
import run
import speed
from workloads import WORKLOADS, full_twist, round_ops


def run_cli(argv: list):
    from burau import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def letters(word: str) -> list:
    return [int(v) for v in word.split()]


# -- oracle ----------------------------------------------------------------

def test_closed_forms():
    assert oracle.EX1_SUP == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-15)
    assert oracle.EX2_DILATATION == pytest.approx(2.2966, abs=1e-4)
    assert oracle.EX3_SUP == pytest.approx(1.7221, abs=1e-4)


def test_refined_sup_reproduces_equality_cases():
    assert oracle.refined_sup(3, letters("1 -2"), 256) == pytest.approx(oracle.EX1_SUP, rel=1e-12)
    assert oracle.refined_sup(5, letters("4 3 2 1 4 3"), 256) == pytest.approx(
        oracle.EX3_SUP, rel=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_full_twist_radius_is_one(n):
    word = letters(full_twist(n))
    for theta in (0.3, 1.7, math.pi):
        assert abs(oracle.mp_radius(n, word, theta) - 1.0) < 1e-15


def test_float_eigvals_smear_the_b6_full_twist():
    # Why the oracle judges radii in high precision.
    word = letters(full_twist(6))
    # At t = -1 float eigvals read 1 + 4.6e-8.
    assert oracle.float_radii(6, word, [math.pi])[0] > 1 + 1e-8
    assert oracle.mp_radius(6, word, math.pi) == 1.0


def test_convention_matches_burau_on_random_words():
    from burau.braid import BraidWord
    from burau.foxburau import burau_matrix, reduced_burau
    from burau.spectral import specialize

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 7))]
        braid = BraidWord(n, tuple(word))
        for t in oracle.random_unit_points(rng, 2):
            full = np.array(oracle.burau_at(n, word, t))
            np.testing.assert_allclose(full, specialize(burau_matrix(braid).matrix, t),
                                       atol=1e-12)
            np.testing.assert_allclose(oracle.reduce_matrix(full),
                                       specialize(reduced_burau(braid).matrix, t), atol=1e-12)


def test_free_group_images_match_burau():
    from burau.braid import BraidWord
    from burau.freegroup import artin_action

    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        images = artin_action(BraidWord(n, tuple(word))).images
        assert oracle.artin_images(n, word) == [list(img.letters) for img in images]


# -- workloads -------------------------------------------------------------

def test_rounds_are_seeded_and_fixed_in_content():
    for workload in WORKLOADS:
        a, b = round_ops(workload, 1), round_ops(workload, 1)
        assert a == b
        other = round_ops(workload, 2)
        assert sorted(op["id"] for op in other) == sorted(op["id"] for op in a)
        assert sorted(op["argv"][0] for op in other) == sorted(op["argv"][0] for op in a)


# -- timing ----------------------------------------------------------------

def test_scale_is_identity_at_the_nominal_probe_time():
    assert speed.scale(2.0, [speed.NOMINAL_S, speed.NOMINAL_S]) == pytest.approx(2.0)
    assert speed.scale(2.0, [2 * speed.NOMINAL_S]) == pytest.approx(1.0)


def test_speedometer_samples_during_the_interval_and_leaves_out_its_probes():
    meter = speed.Speedometer(period=0.01)
    meter.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    seconds, samples = meter.stop()
    assert len(samples) >= 5          # start, end and the timer's samples
    assert 0.2 - sum(samples) <= seconds <= 0.2 + 0.05


def test_end_to_end_takes_each_operations_median_over_rounds():
    # Two operations over three rounds; op 0 has one slow outlier.
    times = [[0, 0, 9.0, 1.0], [1, 0, 9.0, 3.0],
             [0, 1, 9.0, 1.2], [1, 1, 9.0, 3.0],
             [0, 2, 9.0, 9.0], [1, 2, 9.0, 3.2]]
    metrics = run.end_to_end({"times": times, "peak_rss_mb": 50.0}, [0.5, 0.7, 0.6])
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 / (1.2 + 3.0))
    assert metrics["op_s.p50"]["value"] == pytest.approx((1.2 + 3.0) / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)


# -- checker ---------------------------------------------------------------

def entropy_output(grid: int = 64):
    argv = ["entropy-bound", "-n", "3", "1 -2", "--grid", str(grid), "--format", "json"]
    code, out = run_cli(argv)
    return check.Braid(argv), code, out


def test_checker_accepts_program_output():
    op, code, out = entropy_output()
    check.check_output(op, {"sup": oracle.EX1_SUP}, code, out, "", random.Random(1))


def test_checker_rejects_raised_radius():
    op, code, out = entropy_output()
    doc = json.loads(out)
    doc["results"]["radius_star"] *= 1 + 1e-9
    doc["results"]["bound"] = math.log(doc["results"]["radius_star"])
    with pytest.raises(check.CheckFailed, match="exceeds"):
        check.check_output(op, {}, code, json.dumps(doc), "", random.Random(1))


def test_checker_rejects_json_infinity():
    op, code, out = entropy_output()
    doc = json.loads(out)
    doc["results"]["radius_star"] = math.inf
    text = json.dumps(doc)
    assert "Infinity" in text
    with pytest.raises(check.CheckFailed, match="non-JSON"):
        check.check_output(op, {}, code, text, "", random.Random(1))


def test_checker_rejects_flipped_gap_verdict():
    lam = repr(oracle.EX2_DILATATION)
    argv = ["verify", "-n", "4", "1 -2 -3", "--gap-lambda", lam, "--grid", "128",
            "--format", "json"]
    code, out = run_cli(argv)
    op = check.Braid(argv)
    expect = {"gap_holds": True}
    check.check_output(op, expect, code, out, "", random.Random(1))
    doc = json.loads(out)
    doc["results"]["gap"]["gap_holds"] = False
    with pytest.raises(check.CheckFailed):
        check.check_output(op, expect, code, json.dumps(doc), "", random.Random(1))
    with pytest.raises(check.CheckFailed, match="exit code"):
        check.check_output(op, expect, 1, out, "", random.Random(1))


@pytest.mark.parametrize("argv", [
    ["matrix", "-n", "4", "1 -2 -3 2"],
    ["reduced", "-n", "4", "1 -2 -3 2"],
    ["charpoly", "-n", "4", "1 -2 -3 2"],
    ["charpoly", "-n", "4", "1 -2 -3 2", "--reduced"],
    ["alexander", "-n", "4", "1 -2 -3 2"],
    ["growth", "-n", "3", "1 -2", "--iters", "6"],
])
def test_checker_accepts_exact_outputs_and_rejects_a_changed_coefficient(argv):
    argv = argv + ["--format", "json"]
    code, out = run_cli(argv)
    op = check.Braid(argv)
    check.check_output(op, {}, code, out, "", random.Random(3))
    doc = json.loads(out)
    results = doc["results"]
    if "norms" in results:
        results["norms"][-1] += 1
    else:
        poly = results.get("matrix", {}).get("entries") or \
            (results.get("charpoly") or results.get("alexander"))["coefficients"]
        first = poly[0] if poly[0] else poly[1]
        exp = next(iter(first))
        first[exp] = str(int(first[exp]) + 1)
    with pytest.raises(check.CheckFailed):
        check.check_output(op, {}, code, json.dumps(doc), "", random.Random(3))
