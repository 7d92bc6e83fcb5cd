"""The euclidlab benchmark: one command prints every metric and checks outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works on the checkout that holds it and needs no install: each
workload runs in a fresh interpreter with ``PYTHONPATH=src``.  The load
is a closed loop, one client in one process at a time: each operation
is one ``euclidlab.cli.run_command(argv)`` call, what a CLI user runs
minus the process start.  Steps:

1. Correctness gate: the three documented CLI contract invocations run
   twice each as ``python -m euclidlab`` subprocesses; exit codes must
   be 1/0/1, stderr empty and stdout identical.  Any failure stops the
   benchmark with an error and no numbers.
2. Set-up: the workload interpreter is started several times; each
   start is timed to the end of its warm-up operation (whose input is
   outside the timed stream) and the median is reported.
3. Timed run: the seeded stream (``workloads.py``) until S seconds
   have passed, in one process, or, for a workload that runs in
   segments, in consecutive fixed-size segments, each in a fresh
   process.  Every outcome is checked: against the committed SHA-256
   reference for the seeds in ``reference.json``, otherwise by
   recomputing it in plain integers (``verify.py``).  Failing inputs
   are listed by argv; none is dropped.  ``latency_tail_ms`` is the
   11th-largest latency of a process's stream (for a segmented
   workload, the median of the segments' values).  Times are reported
   at a reference host speed (``hostspeed.py``), with the wall-clock
   figures printed beside them.
4. With ``--trace 1``, the same inputs are replayed in fresh
   interpreters, one per process of the timed run, with spans around
   euclidlab's public functions (``tracing.py``); the per-layer metrics
   come from that replay, and the tracing overhead is its throughput
   against the untraced run's.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import hostspeed
import verify
import worker
import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

#: Wall-clock budget for a whole run, below the 180 s a run may take.
BUDGET_S = 170.0
#: Starts timed for set-up alone; every timed process adds one more.
SETUP_SAMPLES = 8

END_TO_END = [("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("correct_frac", "ratio")]

#: The CLI contract invocations of the acceptance suite, with exit codes.
GATE = [
    (["survey", "--three-properties", "--monoid", "congruence 1 mod 3",
      "--bound", "250", "--json"], 1),
    (["gcd", "240", "46", "--json"], 0),
    (["proportion", "--vii19", "4", "10", "10", "25",
      "--monoid", "congruence 1 mod 3", "--json"], 1),
]


class BenchError(Exception):
    pass


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest nearest-rank
    percentile that leaves at least ten samples above its rank."""
    if len(samples) < 11:
        raise BenchError(f"{len(samples)} samples cannot leave ten beyond a percentile")
    n = len(samples)
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1], n - rank


def digest(code, stdout: str) -> str:
    """First 16 hex digits of SHA-256 over the exit code line and stdout."""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def judge(op, outcome, reference: list[str] | None, i: int) -> str:
    """'' when an operation's outcome is right, else the reason."""
    code, raised, stdout, err = outcome
    if raised is None and code in (0, 1) and err:
        return f"wrote to stderr on exit {code}"
    if reference is not None and i < len(reference):
        if raised is not None:
            return f"raised {raised}"
        return "" if digest(code, stdout) == reference[i] else \
            f"exit {code}: output differs from the reference digest"
    return verify.check(op, code, raised, stdout, err)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("the run is over its time budget")
    return left


def correctness_gate(deadline: float) -> None:
    for args, want in GATE:
        runs = [subprocess.run([sys.executable, "-m", "euclidlab", *args],
                               cwd=ROOT, env=_env(), capture_output=True,
                               timeout=_remaining(deadline))
                for _ in range(2)]
        shown = " ".join(args)
        for proc in runs:
            if proc.returncode != want:
                raise BenchError(f"gate: `{shown}` exited {proc.returncode}, "
                                 f"expected {want}: {proc.stderr.decode()[-300:]}")
            if proc.stderr:
                raise BenchError(f"gate: `{shown}` wrote to stderr")
        if runs[0].stdout != runs[1].stdout:
            raise BenchError(f"gate: `{shown}` printed different bytes twice")


def spawn(args: list[str], deadline: float):
    """Start a worker; return (process, (setup seconds, host-speed scale
    factor taken just before the start), its first line)."""
    factor = hostspeed.REFERENCE_S / statistics.median(
        hostspeed.calibrate() for _ in range(3))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    started, _, _ = select.select([proc.stdout], [], [],
                                  max(deadline - perf_counter(), 0.1))
    line = proc.stdout.readline() if started else ""
    setup_s = perf_counter() - start
    try:
        first = json.loads(line)
    except json.JSONDecodeError:
        finish(proc, deadline)
        raise BenchError(f"worker {args[0]} failed to start") from None
    if first["warmup_raised"] or first["warmup_code"] not in (0, 1):
        finish(proc, deadline)
        raise BenchError(f"warm-up operation failed: {first}")
    return proc, (setup_s, factor), first


def finish(proc, deadline: float) -> dict:
    """Wait for a worker and return its last JSON line (if any)."""
    try:
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {}


def load_reference(workload: str, seed: int) -> list[str] | None:
    if not REFERENCE.exists():
        return None
    seeds = json.loads(REFERENCE.read_text())["seeds"].get(workload, {})
    joined = seeds.get(str(seed), "")
    return [joined[i:i + 16] for i in range(0, len(joined), 16)] or None


def first_ops(workload: str, seed: int, count: int) -> list:
    ops = []
    for round_ops in workloads.rounds(workload, seed):
        ops += round_ops
        if len(ops) >= count:
            return ops[:count]


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> list[dict]:
    """Run the stream for ``seconds``; one result per worker process.

    A workload without segments runs in one process until the clock
    stops it.  A segmented one runs consecutive segments of a fixed
    number of rounds, each in a fresh interpreter, until their timed
    loops add up to ``seconds``.
    """
    spec = workloads.WORKLOADS[workload]
    segments, first_round, spent = [], 0, 0.0
    while spent < seconds:
        outputs = OUT / f"outputs-{workload}-{seed}-{len(segments)}.txt"
        proc, setup_s, first = spawn(
            ["run", workload, str(seed), str(first_round),
             str(spec.segment_rounds), str(seconds - spent), str(outputs)],
            deadline)
        run = finish(proc, deadline)
        run["outcomes"] = worker.read_outputs(outputs)
        outputs.unlink()
        run.update(first_round=first_round, setup=setup_s,
                   import_s=first["import_s"],
                   scaled=scaled(run["latencies"], run["calibration"]))
        if len(run["outcomes"]) != len(run["latencies"]):
            raise BenchError(f"{len(run['outcomes'])} outcomes recorded for "
                             f"{len(run['latencies'])} operations")
        segments.append(run)
        if not spec.segment_rounds:
            break
        if run["rounds"] != spec.segment_rounds:
            raise BenchError(f"a segment ran {run['rounds']} rounds, "
                             f"not {spec.segment_rounds}")
        first_round += run["rounds"]
        spent += run["elapsed_s"]
    return segments


def scaled(latencies: list[float], calibration: list) -> list[float]:
    """Latencies at the reference host speed (see ``hostspeed.py``)."""
    return [t * f for t, f in
            zip(latencies, hostspeed.factors(calibration, len(latencies)))]


def traced_replay(workload: str, seed: int, segments: list[dict],
                  deadline: float) -> tuple[dict, list[float], list[Path]]:
    """Replay each segment's inputs in a fresh traced interpreter.

    Returns the per-layer counters summed over the segments, the traced
    latencies at the reference host speed and the span files.
    """
    layer: defaultdict = defaultdict(float)
    latencies, span_files = [], []
    for k, seg in enumerate(segments):
        spans = OUT / f"spans-{workload}-{seed}-{k}.jsonl"
        replay_out = OUT / f"replay-{workload}-{seed}-{k}.txt"
        proc, _, _ = spawn(["replay", workload, str(seed), str(seg["first_round"]),
                            str(len(seg["latencies"])), str(replay_out),
                            str(spans)], deadline)
        traced = finish(proc, deadline)
        replay_out.unlink()
        for name, value in traced["metrics"].items():
            layer[name] += value
        latencies += scaled(traced["latencies"], traced["calibration"])
        span_files.append(spans)
    cands = layer["monoids.divisors.candidates"]
    layer["monoids.divisors.useful_ratio"] = (
        layer["monoids.divisors.found"] / cands if cands else 0.0)
    return layer, latencies, span_files


def timings(segments: list[dict], key: str, setups: list[float]) -> dict:
    """The timed end-to-end figures from the segments' ``key`` latencies."""
    latencies = [t for seg in segments for t in seg[key]]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": 1000 * statistics.median(
            tail_percentile(seg[key])[1] for seg in segments),
        "setup_s": statistics.median(setups),
    }


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = perf_counter() + BUDGET_S
    if not (ROOT / "src" / "euclidlab").is_dir():
        raise BenchError(f"no euclidlab sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    correctness_gate(deadline)

    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        proc, setup, first = spawn(["setup", workload, str(seed)], deadline)
        finish(proc, deadline)
        setups.append(setup)
        imports.append(first["import_s"])
    segments = timed_run(workload, seed, seconds, deadline)
    setups += [seg["setup"] for seg in segments]
    imports += [seg["import_s"] for seg in segments]
    outcomes = [o for seg in segments for o in seg["outcomes"]]

    n = len(outcomes)
    ops = first_ops(workload, seed, n)
    reference = load_reference(workload, seed)
    failures = []
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        reason = judge(op, outcome, reference, i)
        if reason:
            failures.append((op, reason))

    pct, _, beyond = tail_percentile(segments[0]["latencies"])
    e2e = {
        **timings(segments, "scaled", [s * f for s, f in setups]),
        "peak_rss_mb": statistics.median(
            seg["rss_prefix_kb"] for seg in segments) / 1024,
        "correct_frac": (n - len(failures)) / n,
    }
    ops_per_s = e2e["ops_per_s"]
    wall = timings(segments, "latencies", [s for s, _ in setups])
    calibration_ms = 1000 * statistics.median(
        c for seg in segments for _, c in seg["calibration"])
    distinct = len({op.argv for op in ops})
    checked = min(n, len(reference)) if reference else 0
    rounds = sum(seg["rounds"] for seg in segments)
    print(f"workload {workload}  seed {seed}  complete rounds {rounds} in "
          f"{len(segments)} process(es)  inputs drawn {n}, distinct {distinct}")
    print(f"correctness gate: {len(GATE)} invocations run twice, all agree")
    print(f"outputs: {checked} checked against reference digests, "
          f"{n - checked} re-verified in plain integers")
    spec = workloads.WORKLOADS[workload]
    for name, unit in END_TO_END:
        note = ""
        if name == "latency_tail_ms":
            size = len(segments[0]["latencies"])
            note = (f"  (p{pct:.1f} of {size} samples, {beyond} beyond it" +
                    (f"; median over {len(segments)} segments)"
                     if spec.segment_rounds else ")"))
        elif name == "peak_rss_mb":
            note = (f"  (over the first {spec.rss_rounds} round(s)"
                    + (f" of each segment, median over {len(segments)}; "
                       if spec.segment_rounds else "; ")
                    + f"{max(seg['rss_end_kb'] for seg in segments) / 1024:.1f}"
                    " MB by the end)")
        elif name == "setup_s":
            note = f"  (median of {len(setups)} starts)"
        if name in wall:
            note = f"  {wall[name]:.6g} {unit} wall clock" + note
        print(f"  {name:<16} {e2e[name]:.6g} {unit}{note}")
    print(f"  (times at the reference host speed; the calibration loop took "
          f"{calibration_ms:.4g} ms here against "
          f"{1000 * hostspeed.REFERENCE_S:.4g} ms at the reference)")
    print(f"  failed_frac      {len(failures) / n:.6g}  ({len(failures)} of {n})")
    for op, reason in failures:
        print(f"  FAILED {json.dumps(list(op.argv))}: {reason}")

    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}
    if trace:
        layer, traced, span_files = traced_replay(workload, seed, segments,
                                                  deadline)
        layer["proc.import_s"] = statistics.median(imports)
        layer.update({"wall." + name: value for name, value in wall.items()})
        layer["host.calibration_ms"] = calibration_ms
        layer["trace.ops_per_s"] = n / sum(traced)
        layer["trace.overhead_frac"] = 1 - layer["trace.ops_per_s"] / ops_per_s
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
        print(f"traced replay of the same {n} inputs; spans in "
              f"{len(span_files)} file(s) under {OUT.relative_to(ROOT)}/; "
              f"tracing overhead "
              f"{ops_per_s - layer['trace.ops_per_s']:.4g} ops/s")
        for name, unit in PER_LAYER:
            print(f"  {name:<48} {metrics[name]['value']:.6g} {unit}")
    return {"correct": not failures, "attempted": n, "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result = bench(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
