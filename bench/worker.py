"""The workload process: import euclidlab, warm up, run operations.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH=src``
from the repository root.  Modes:

    worker.py setup WORKLOAD SEED
    worker.py run WORKLOAD SEED FIRST_ROUND ROUNDS SECONDS OUTPUTS
    worker.py replay WORKLOAD SEED FIRST_ROUND COUNT OUTPUTS [SPANS]

Each mode prints one JSON line once the warm-up operation has ended
(the parent times set-up up to that line), then, for ``run`` and
``replay``, one JSON line of results, calibration samples taken
between operations included (``hostspeed.py``).  ``run`` executes the
workload's stream from round FIRST_ROUND, timing each
``euclidlab.cli.run_command(argv)`` call, and writes every operation's
exit code and output to OUTPUTS.  It stops after ROUNDS rounds
whatever the clock says, or, with ROUNDS 0, once SECONDS have passed
and at least the rounds peak RSS is taken over are done.  ``replay``
runs COUNT operations of the same stream from round FIRST_ROUND; given
SPANS, it records spans around euclidlab's public functions, each
tagged with the operation's index in the whole stream, and writes
them there.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import hostspeed
import workloads


#: A process stops after this many operations even with time left: the
#: CLI caches every enumeration it makes, so memory grows with each
#: distinct query.  Workloads that would pass it run in segments.
MAX_OPS = 15_000


class _Calibration:
    """Calibration samples taken between operations (see ``hostspeed``)."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self._last = None

    def due(self, index: int, force: bool = False) -> None:
        """Sample before operation ``index`` if ``EVERY_S`` has passed."""
        if force or self._last is None or \
                perf_counter() - self._last >= hostspeed.EVERY_S:
            self.samples.append((index, hostspeed.calibrate()))
            self._last = perf_counter()


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call(run_command, argv):
    """One operation as the CLI would run it, minus the process start.

    Returns (seconds, exit code, stdout text, text written to stderr by
    the library itself, exception type name or None).
    """
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code, text = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code, text = run_command(list(argv))
        except Exception as exc:  # a traceback for a CLI user: recorded
            raised = type(exc).__name__
        elapsed = perf_counter() - start
    stdout = out.getvalue()
    if text and code in (0, 1):
        stdout += text + "\n"
    return elapsed, code, stdout, err.getvalue(), raised


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    spec = workloads.WORKLOADS[workload]
    start = perf_counter()
    from euclidlab import cli
    import_s = perf_counter() - start
    _, code, _, _, raised = _call(cli.run_command, spec.warmup.argv)
    print(json.dumps({"import_s": import_s, "warmup_code": code,
                      "warmup_raised": raised}), flush=True)
    if mode == "setup":
        return 0

    first_round = int(argv[3])
    if mode == "run":
        max_rounds, seconds, outputs = int(argv[4]), float(argv[5]), argv[6]
        latencies, rss_prefix, rounds_done = [], None, 0
        calibration = _Calibration()
        with open(outputs, "w", newline="") as f:
            began = perf_counter()
            for _, op, ends_round in _stream(workload, seed, first_round):
                if len(latencies) >= MAX_OPS or (
                        not max_rounds and perf_counter() - began >= seconds
                        and rounds_done >= spec.rss_rounds):
                    break
                calibration.due(len(latencies))
                latencies.append(_run_op(cli.run_command, op, f))
                if ends_round:
                    rounds_done += 1
                    if rounds_done == spec.rss_rounds:
                        rss_prefix = _rss_kb()
                    if rounds_done == max_rounds:
                        break
            calibration.due(len(latencies), force=True)
        print(json.dumps({"latencies": latencies, "rounds": rounds_done,
                          "calibration": calibration.samples,
                          "elapsed_s": perf_counter() - began,
                          "rss_prefix_kb": rss_prefix,
                          "rss_end_kb": _rss_kb()}), flush=True)
        return 0

    count, outputs = int(argv[4]), argv[5]
    tracer = None
    if len(argv) > 6:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    latencies = []
    calibration = _Calibration()
    with open(outputs, "w", newline="") as f:
        for _, (op_id, op, _) in zip(range(count),
                                     _stream(workload, seed, first_round)):
            calibration.due(len(latencies))
            if tracer:
                tracer.op_id = op_id
            latencies.append(_run_op(cli.run_command, op, f))
            if tracer:
                tracer.end_op()
        calibration.due(len(latencies), force=True)
    result = {"latencies": latencies, "calibration": calibration.samples}
    if tracer:
        result["metrics"] = tracer.metrics()
        tracer.dump(argv[6])
    print(json.dumps(result), flush=True)
    return 0


def _stream(workload: str, seed: int, first_round: int = 0):
    """(index in the stream, operation, whether it ends a round) along
    the endless stream, from round first_round on."""
    index = 0
    for r, ops in enumerate(workloads.rounds(workload, seed)):
        if r >= first_round:
            for i, op in enumerate(ops):
                yield index + i, op, i == len(ops) - 1
        index += len(ops)


def _run_op(run_command, op, f) -> float:
    """Run one operation, append its outcome to f, return its seconds."""
    elapsed, code, stdout, err, raised = _call(run_command, op.argv)
    f.write(f"{code}\t{raised}\t{len(stdout)}\t{len(err)}\n")
    f.write(stdout)
    f.write(err)
    return elapsed


def read_outputs(path) -> list[tuple]:
    """(exit code, exception name, stdout, stderr) per operation."""
    out = []
    with open(path, newline="") as f:
        while header := f.readline():
            code, raised, n_out, n_err = header.rstrip("\n").split("\t")
            out.append((None if code == "None" else int(code),
                        None if raised == "None" else raised,
                        f.read(int(n_out)), f.read(int(n_err))))
    return out


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
