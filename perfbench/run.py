#!/usr/bin/env python3
"""The tycat benchmark.

    python3 perfbench/run.py --workload sweep|big-build|consume \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs the workload's ops as a
closed loop: one ``python -m tycat ...`` child at a time, each started only
after the previous one exited.  Ops run in passes over the workload's op
list (seeded order) until ``--seconds`` have elapsed; the pass in flight
is finished.  Every op's output is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics, their times scaled to a
reference host speed (``HostSpeed``); ``--trace 1`` runs one traced
pass (``tracechild.py``: spans around the calls into each module), one
counting pass and the ``cyclo`` microbenchmarks, and prints the per-layer
metrics.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MEM_CAP_BYTES = 4 << 30  # address-space cap per child (RLIMIT_AS)
OP_TIMEOUT_S = 60.0
WARMUPS = 3
# The shared host's speed moves in steps of about 25-30% that last minutes:
# the same `consume` pass took 17.8-18.0 s in three runs in a row and
# 22.5-24.9 s in the seven around them.  No statistic over one run removes a
# step that outlasts the run, so each run times a reference child
# (`reference.py`, which does not import tycat) every REFERENCE_EVERY_S
# seconds, and its end-to-end times are scaled by REFERENCE_S over the
# median reference time of the run: seconds on a host where the reference
# child takes REFERENCE_S.
REFERENCE = HERE / "reference.py"
REFERENCE_S = 0.3
REFERENCE_EVERY_S = 2.0
WARMUP_OP = wl.Op("warmup:classify:3", ("classify", "--group", "3"),
                  {"kind": "classify", "group": "3"})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    # one numeric thread per child: with OpenBLAS's default pool (a thread
    # per core) the short children of `sweep` ran 15-25% slower and varied
    # three times as much from pass to pass on a 2-core host
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


@dataclass
class Result:
    op: wl.Op
    wall: float
    cpu: float
    maxrss_mb: float
    stdout_bytes: int
    failure: str | None  # None when the op exited 0 with a checked answer
    wrong: bool  # exited 0 but the answer failed its check
    digest: str  # sha256 of stdout


def run_child(cmd: list[str], out_path: Path, cwd: Path = WORK):
    """Run one child under the memory cap and the timeout, stdout to
    ``out_path``.  Returns (wall, cpu, maxrss_mb, exit code, timed out,
    stderr tail); the exit code is -N for a kill by signal N."""
    err_path = out_path.with_suffix(".err")
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                preexec_fn=_cap_memory)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_bytes()[-300:].decode("utf-8", "replace").strip()
    err_path.unlink()
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode,
            timed_out.is_set(), tail)


def execute(op: wl.Op, inputs: dict, cmd_prefix: list[str] | None = None,
            same_as: Result | None = None) -> Result:
    """Run one op and check its output; with ``same_as``, the output must
    instead be byte-identical to that earlier run's (an instrumented rerun
    must not change results, and parsing large outputs again costs seconds)."""
    out_path = WORK / "op.out"
    cmd = (cmd_prefix or [sys.executable, "-m", "tycat"]) + list(op.argv)
    wall, cpu, rss, rc, timed_out, tail = run_child(cmd, out_path)
    size = out_path.stat().st_size
    with open(out_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    failure, wrong = None, False
    if timed_out:
        failure = f"timeout after {OP_TIMEOUT_S:.0f} s"
    elif rc < 0:
        failure = f"killed by signal {-rc}"
    elif rc != 0:
        last = tail.splitlines()[-1] if tail else ""
        failure = f"{'memory cap' if 'MemoryError' in tail else f'exit {rc}'}: {last}"
    elif same_as is not None and not same_as.failure:
        if digest != same_as.digest:
            failure, wrong = "wrong answer: output differs from the untraced run", True
    else:
        try:
            why = checks.check(op.check, checks.read_json(out_path), inputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"unreadable output: {type(exc).__name__}: {exc}"
        if why is not None:
            failure, wrong = f"wrong answer: {why}", True
    out_path.unlink()
    return Result(op, wall, cpu, rss, size, failure, wrong, digest)


# -- set-up ------------------------------------------------------------------------


def relabel(obj: dict, seed: int) -> dict:
    """The same modular data under a fixed unit-fixing label permutation."""
    r = len(obj["labels"])
    perm = [0] + random.Random(seed).sample(range(1, r), r - 1)  # new i <- old perm[i]
    out = dict(obj)
    for key in ("labels", "label_names", "T"):
        out[key] = [obj[key][p] for p in perm]
    if obj.get("grading") is not None:
        out["grading"] = [obj["grading"][p] for p in perm]
    out["S"] = [[obj["S"][p][q] for q in perm] for p in perm]
    out.pop("float_view", None)  # advisory only; readers ignore it
    return out


def setup(workload: str) -> tuple[float, dict, dict, list[Result]]:
    """Warm-up runs (several, median) and, for consume, the input files.
    Returns (setup_s, inputs, label names, warm-up results)."""
    WORK.mkdir(exist_ok=True)
    warm = [execute(WARMUP_OP, {}) for _ in range(WARMUPS)]
    setup_s = statistics.median(r.wall for r in warm)
    inputs: dict = {}
    names: dict = {}
    if workload == "consume":
        t0 = time.perf_counter()
        (WORK / "inputs").mkdir(exist_ok=True)
        for name, argv in wl.CONSUME_INPUTS.items():
            path = WORK / wl.input_path(name)
            rc = run_child([sys.executable, "-m", "tycat", *argv], path)[3]
            if rc != 0:
                raise SystemExit(f"set-up failed: tycat {' '.join(argv)} exited {rc}")
        for name, (src, seed) in wl.CONSUME_RELABELED.items():
            obj = checks.read_json(WORK / wl.input_path(src))
            with open(WORK / wl.input_path(name), "w", encoding="utf-8") as fh:
                json.dump(relabel(obj, seed), fh)
        setup_s += time.perf_counter() - t0
        for name in list(wl.CONSUME_MD) + list(wl.CONSUME_RELABELED):
            obj = checks.read_json(WORK / wl.input_path(name))
            if name in wl.CONSUME_MD:
                why = checks.check_md(obj, *wl.CONSUME_MD[name])
                if why is not None:
                    raise SystemExit(f"set-up output {name} is wrong: {why}")
            inputs[name] = checks.MD(obj)
            names[name] = inputs[name].names
        for name in sorted(set(wl.GENMP_OF.values())):
            inputs[name] = checks.read_json(WORK / wl.input_path(name))
            why = checks.check_rules(inputs[name], "genmp", wl.CONSUME_INPUTS[name][-1])
            if why is not None:
                raise SystemExit(f"set-up output {name} is wrong: {why}")
    return setup_s, inputs, names, warm


def op_list(workload: str, names: dict) -> list[wl.Op]:
    if workload == "sweep":
        return wl.sweep_ops()
    if workload == "big-build":
        return wl.big_build_ops()
    return wl.consume_ops(names)


# -- statistics --------------------------------------------------------------------


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest sample with at least ten
    samples beyond it; the maximum when there are fewer than 20 samples."""
    return n - 11 if n >= 20 else n - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(results: list[Result]) -> tuple[int, int, bool]:
    failed = [r for r in results if r.failure]
    for r in failed:
        print(f"FAILED {r.op.id}: {r.failure}")
    return len(results), len(failed), not any(r.wrong for r in results)


class HostSpeed:
    """The wall times of the reference child over one run."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time the reference child, unless it ran less than
        REFERENCE_EVERY_S ago and ``force`` is false."""
        if not force and time.perf_counter() - self.last < REFERENCE_EVERY_S:
            return
        out = WORK / "reference.out"
        wall, _, _, rc, timed_out, tail = run_child([sys.executable, str(REFERENCE)], out)
        out.unlink()
        if rc != 0 or timed_out:
            raise SystemExit(f"the reference child failed: {tail}")
        self.walls.append(wall)
        self.last = time.perf_counter()

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.walls)


def run_passes(ops: list[wl.Op], inputs: dict, rng: random.Random, seconds: float,
               host: HostSpeed) -> list[list[Result]]:
    passes = []
    deadline = time.perf_counter() + seconds

    def timed(op: wl.Op) -> Result:
        host.sample()
        return execute(op, inputs)

    while True:
        passes.append([timed(op) for op in wl.shuffled(ops, rng)])
        if time.perf_counter() >= deadline:
            host.sample(force=True)
            return passes


def end_to_end(args, ops, inputs, setup_s, warm, host: HostSpeed) -> dict:
    rng = random.Random(args.seed)
    passes = run_passes(ops, inputs, rng, args.seconds, host)
    results = [r for p in passes for r in p]
    scale = host.scale()
    walls = sorted(r.wall * scale for r in results)
    n = len(walls)
    k = tail_index(n)
    attempted, failed, correct = report(results)
    _, _, warm_ok = report(warm)
    print(f"# {args.workload}: {len(passes)} pass(es) of {len(ops)} ops; op_s over "
          f"{n} samples, tail = sample {k + 1} of {n} "
          f"(p{100 * (k + 1) / n:.1f}{'' if n >= 20 else ', the maximum: fewer than 20 samples'})")
    for r in sorted(results, key=lambda r: -r.wall)[:5]:
        print(f"#   slowest: {r.op.id} {r.wall:.3f} s, {r.maxrss_mb:.0f} MB")

    def per_pass(f) -> float:
        return statistics.median(sum(f(r) for r in p) for p in passes)

    print(f"# host: reference child median {statistics.median(host.walls):.3f} s over "
          f"{len(host.walls)} samples, times scaled by {scale:.4f}; unscaled wall "
          f"{per_pass(lambda r: r.wall):.3f} s, set-up {setup_s:.3f} s")

    return {
        "correct": correct and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": metric(per_pass(lambda r: r.wall) * scale, "s"),
            "op_s.p50": metric(statistics.median(walls), "s"),
            "op_s.tail": metric(walls[k], "s"),
            "cpu_s": metric(per_pass(lambda r: r.cpu) * scale, "s"),
            "peak_rss_mb": metric(max(r.maxrss_mb for r in results), "MB"),
            "stdout_mb": metric(per_pass(lambda r: r.stdout_bytes) / 1e6, "MB"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
            "setup_s": metric(setup_s * scale, "s"),
        },
    }


def traced(args, ops, inputs, warm, host: HostSpeed) -> dict:
    order = wl.shuffled(ops, random.Random(args.seed))
    spans_dir = WORK / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)  # a killed child must not leave an old record
    spans_dir.mkdir()
    child = [sys.executable, str(HERE / "tracechild.py")]

    def instrumented(mode: str, i: int, op: wl.Op, same_as: Result | None = None) -> Result:
        out = tracing.record_path(spans_dir, i, mode)
        return execute(op, inputs, child + ["--mode", mode, "--out", str(out), "--op", op.id,
                                            "--"], same_as)

    # tracing overhead per op: the warm-up op traced, against the set-up's
    # untraced warm-ups
    traced_warm = [instrumented("spans", -1, WARMUP_OP) for _ in range(WARMUPS)]
    overhead = (statistics.median(r.wall for r in traced_warm)
                - statistics.median(r.wall for r in warm))
    spanned = [instrumented("spans", i, op) for i, op in enumerate(order)]
    counted = {i: instrumented("count", i, op, spanned[i]) for i, op in enumerate(order)
               if op.id not in wl.COUNT_PASS_SKIP}
    import_s = tracing.import_time(child, run_child, WORK / "import.out")
    micro = tracing.microbenchmarks(run_child, HERE / "micro.py", WORK / "micro.out", args.seed)
    metrics = tracing.layer_metrics(spans_dir, [r.failure is not None for r in spanned],
                                    {i: r.failure is not None for i, r in counted.items()})
    metrics["cli.import_s"] = import_s
    if micro is None:
        print("FAILED cyclo microbenchmarks: a cross-check failed")
    metrics.update(micro or {})
    metrics["trace.overhead_s"] = overhead
    for _ in range(WARMUPS):
        host.sample(force=True)
    metrics["host.reference_s"] = statistics.median(host.walls)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    attempted, failed, correct = report(spanned + list(counted.values()) + traced_warm)
    _, _, warm_ok = report(warm)
    return {
        "correct": correct and warm_ok and micro is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(metrics.get(name, 0), unit) for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tycat" / "cli.py").is_file():
        print(f"error: no tycat sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    host = HostSpeed()
    setup_s, inputs, names, warm = setup(args.workload)
    ops = op_list(args.workload, names)
    if args.trace:
        result = traced(args, ops, inputs, warm, host)
    else:
        result = end_to_end(args, ops, inputs, setup_s, warm, host)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
