"""Tests for the benchmark itself (not for euclidlab).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import hostspeed
import run
import verify
import worker
import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent


def _first_rounds(workload, seed, count=3):
    stream = workloads.rounds(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_a_pure_function_of_workload_and_seed(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


def test_generator_does_not_depend_on_the_process():
    code = ("import hashlib, workloads; s = workloads.rounds('queries', 3); "
            "print(hashlib.sha256(repr([next(s) for _ in range(2)]).encode())"
            ".hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], cwd=HERE, text=True,
                              capture_output=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": str(h)}).stdout
               for h in (1, 2)}
    assert len(digests) == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_never_repeat_and_miss_the_warmup(workload):
    ops = [op for ops in _first_rounds(workload, 1, 12) for op in ops]
    argvs = [op.argv for op in ops]
    assert len(set(argvs)) == len(argvs)
    assert workloads.WORKLOADS[workload].warmup.argv not in argvs


def test_a_segment_resumes_the_stream_where_the_last_one_stopped():
    rounds = _first_rounds("queries", 4, 5)
    whole = [op for ops in rounds for op in ops]
    skipped = len(rounds[0]) + len(rounds[1])
    resumed = list(islice(worker._stream("queries", 4, first_round=2),
                          len(whole) - skipped))
    assert resumed[0][0] == skipped
    assert [op for _, op, _ in resumed] == whole[skipped:]
    assert [index for index, _, _ in resumed] == list(range(skipped, len(whole)))


def test_host_speed_scaling_follows_the_nearest_calibration_samples():
    ref = hostspeed.REFERENCE_S
    # The host runs at half speed for the first ten timings, then at
    # full speed; a timing is scaled by the samples around it.
    samples = [(i, 2 * ref) for i in range(0, 10, 2)] + \
              [(i, ref) for i in range(10, 22, 2)]
    factors = hostspeed.factors(samples, 20)
    assert factors[:4] == [0.5] * 4
    assert factors[-6:] == [1.0] * 6
    assert run.scaled([2 * ref] * 20, samples)[0] == ref
    with pytest.raises(ValueError):
        hostspeed.factors([], 1)


@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 1000, 1001])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]  # distinct, unsorted
    pct, value, beyond = run.tail_percentile(samples)
    assert beyond >= 10
    assert sum(s > value for s in samples) >= 10
    # The next rank up would leave fewer than ten beyond it.
    assert sum(s > value + 1 for s in samples) < 10
    assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile([1.0] * 10)


DIVISORS_12 = workloads.Op(("divisors", "12", "--json"))
DIVISORS_12_OUT = json.dumps(
    {"command": "divisors", "monoid": "nat",
     "payload": {"divisors": [1, 2, 3, 4, 6, 12], "element": 12,
                 "nontrivial": False},
     "schema_version": "1.0", "witnesses": []},
    sort_keys=True, separators=(",", ":")) + "\n"


def test_matching_digest_passes_and_mismatched_digest_fails():
    good = run.digest(0, DIVISORS_12_OUT)
    outcome = (0, None, DIVISORS_12_OUT, "")
    assert run.judge(DIVISORS_12, outcome, [good], 0) == ""
    assert run.judge(DIVISORS_12, outcome, ["0" * 16], 0) != ""
    assert run.judge(DIVISORS_12, (1, None, DIVISORS_12_OUT, ""), [good], 0) != ""


def test_stderr_on_an_answer_fails_even_with_a_matching_digest():
    good = run.digest(0, DIVISORS_12_OUT)
    assert run.judge(DIVISORS_12, (0, None, DIVISORS_12_OUT, "warn\n"),
                     [good], 0) != ""


def test_plain_integer_check_catches_a_wrong_answer():
    assert verify.check(DIVISORS_12, 0, None, DIVISORS_12_OUT, "") == ""
    wrong = DIVISORS_12_OUT.replace("[1,2,3,4,6,12]", "[1,2,3,4,12]")
    assert verify.check(DIVISORS_12, 0, None, wrong, "") != ""
    assert verify.check(DIVISORS_12, None, "ValueError", "", "") != ""


def test_refusals_count_only_when_expected():
    op = workloads.Op(("divisors", "12x", "--json"), expect=2)
    assert verify.check(op, 2, None, "", "") == ""
    assert verify.check(op, 3, None, "", "") != ""
    assert verify.check(op, 2, None, "{}\n", "") != ""


def test_survey_witnesses_are_rechecked():
    op = workloads.Op(("survey", "--three-properties", "--monoid",
                       "congruence 1 mod 3", "--bound", "100", "--json"))
    lemma = {"kind": "euclid_lemma_failure", "flag": "euclid_lemma",
             "irreducible": 4, "a": 10, "b": 10, "product": 100}
    flags = {name: {"holds": name != "euclid_lemma",
                    "witness_count": int(name == "euclid_lemma")}
             for name in verify.FLAG_NAMES}
    doc = {"command": "survey", "monoid": "congruence 1 mod 3",
           "payload": {"bound": 100, "flags": flags},
           "schema_version": "1.0", "witnesses": [lemma]}
    assert verify.check(op, 1, None, json.dumps(doc) + "\n", "") == ""
    doc["witnesses"] = [{**lemma, "a": 4}]  # 4 divides a: not a failure
    assert verify.check(op, 1, None, json.dumps(doc) + "\n", "") != ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
