"""seqveritas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics, measured with no instrumentation in place.
With `--trace 1` the same command first runs the untraced workload in a
child process, then runs it again in this process with every traced
function wrapped, and reports the per-layer metrics plus
`trace_overhead.<metric>` (traced minus untraced). `--workload all` runs
every workload in turn and prints one table.

The exit code is 0 when every output check passed, 1 when one failed (the
result is still printed) and 2 when the program cannot be found or the
arguments are wrong (nothing is printed on standard output).

Every run writes a record with the run metadata to perfbench/out/; traced
runs also write their spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper", "mini")
CHILD_TIMEOUT_S = 170


def _die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import seqveritas from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "seqveritas" / "__init__.py").is_file():
        _die(f"{src}/seqveritas not found; run from a checkout of the "
             "repository")
    sys.path.insert(0, str(src))
    import seqveritas
    if Path(seqveritas.__file__).resolve().parent != (src / "seqveritas").resolve():
        _die(f"imported seqveritas from {seqveritas.__file__}")


# --- run metadata ------------------------------------------------------------

def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas():
    """(library, threads) of the BLAS numpy loaded; threads is None when
    the library exposes no thread query."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def metadata(args):
    import numpy as np
    blas, threads = _blas()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "machine": platform.machine(), "commit": _commit(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


# --- one workload ------------------------------------------------------------

def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())}}


def _print_table(title, metrics):
    print(title, file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)


def run_untraced(args, work):
    import workloads
    from clock import Clock
    with Clock() as clock:
        res = workloads.run(args.workload, args.seed, args.seconds, clock,
                            work)
    return res, _result(res.ops.failed == 0, res.ops.attempted,
                        res.ops.failed, res.metrics)


def run_traced(args, work):
    """Untraced run in a child process, then the traced run here."""
    import numpy as np
    import perlayer
    import workloads
    from clock import Clock
    from spans import SpanRecorder, Tracer

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        _die(f"untraced run exited {child.returncode}")
    untraced = json.loads(lines[-1])

    rec = SpanRecorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        with Clock() as clock:
            res = workloads.run(args.workload, args.seed, args.seconds,
                                clock, work, tracer)
    finally:
        tracer.uninstall()
    ops = res.ops

    metrics = perlayer.derive(rec, tracer, res.info)
    for name, (value, unit) in res.metrics.items():
        if f"trace_overhead.{name}" in perlayer.UNITS:
            base = untraced["metrics"][name]["value"]
            metrics[f"trace_overhead.{name}"] = (value - base, unit)

    fits = perlayer.fit_accounts(rec)
    for phase, wall, covered, uncovered, by_name in fits:
        ops.record(abs(covered + uncovered - wall) <= 1e-6 * max(wall, 1.0),
                   f"fit {phase}: self times do not add up to its wall time")
        print(f"optim.fit [{phase}] wall {wall:.3f} s = traced self "
              f"{covered:.3f} s + uncovered {uncovered:.3f} s", file=sys.stderr)
        for name, s in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {s:10.4f} s {100 * s / wall:6.2f}%",
                  file=sys.stderr)
    losses = [v for parent, v in tracer.bce_values if parent == "optim.fit"]
    ops.record(bool(np.all(np.isfinite(losses))),
               "a batch loss or val_loss is not finite", count=len(losses))

    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    attempted = untraced["attempted"] + ops.attempted
    failed = untraced["failed"] + ops.failed
    correct = untraced["correct"] and ops.failed == 0
    return res, _result(correct, attempted, failed, metrics), {
        "untraced": untraced, "traced_end_to_end": _result(
            ops.failed == 0, ops.attempted, ops.failed, res.metrics)}


def run_one(args):
    _import_program()
    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            res, result, extra = run_traced(args, work)
        else:
            (res, result), extra = run_untraced(args, work), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from synth import PARAMS
    from workloads import SCALES
    for failure in res.ops.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    _print_table(f"{args.workload} seed {args.seed} trace {args.trace}: "
                 f"{result['attempted']} attempted, {result['failed']} failed",
                 {k: (v["value"], v["unit"])
                  for k, v in result["metrics"].items()})
    record = {"meta": meta, "generator": PARAMS,
              "scale": dataclasses.asdict(SCALES[args.workload]),
              "info": res.info,
              "result": result, **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --- every workload ------------------------------------------------------------

def run_all(args):
    """Each workload in its own process; one table of every metric."""
    _import_program()
    status, rows = 0, []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=2 * CHILD_TIMEOUT_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: {result['attempted']} attempted, "
              f"{result['failed']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        rows.append((workload, result))
    print(json.dumps({w: r for w, r in rows}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; sampling loops repeat until "
                             "it is spent, single operations run once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
