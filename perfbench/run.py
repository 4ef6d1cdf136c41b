"""symbolkit benchmark: runs one workload through ``symbolkit.cli.main``
in-process, checks every output, and prints one JSON result line.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; symbolkit is imported from its src/.
``--trace 0`` reports the end-to-end metrics (set-up time, run time per
round, peak RSS).  ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Outputs, run records and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import symbolkit from this checkout, never from an installed copy."""
    if not (SRC / "symbolkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no symbolkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symbolkit
    if Path(symbolkit.__file__).resolve().parent != SRC / "symbolkit":
        raise SystemExit(f"perfbench: imported symbolkit from {symbolkit.__file__}")
    return symbolkit


def cold_start(models: list[str]) -> float:
    """Seconds from starting a fresh interpreter until symbolkit is
    imported and every model of the workload is compiled."""
    start = monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "cold_start.py"), *models],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    from symbolkit.simulate import _worker_count
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workers": _worker_count(),
        "SYMBOLKIT_THREADS": os.environ.get("SYMBOLKIT_THREADS"),
    }


class Round:
    def __init__(self):
        self.op_seconds: list[float] = []
        self.failed = 0
        self.incorrect = 0
        self.verdicts_failed = 0
        self.problems: list[str] = []
        self.fates: dict = {}


def run_round(workload, tracer=None) -> Round:
    """One pass over the workload's operations.  Only the CLI call and
    the reading of its outputs are timed."""
    from symbolkit.cli import main
    rnd = Round()
    for i, op in enumerate(workload.ops):
        shutil.rmtree(op.out, ignore_errors=True)
        argv = [*op.argv, "--out", str(op.out)]
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = main(argv)
                else:
                    tracer.op = i
                    code = tracer.call("cli.main", "cli", main, (argv,), {})
            data = op.read(op.out) if code in ((0, 1) if op.verdict_exit else (0,)) else None
        except SystemExit as err:
            code, data = err.code, None
        except Exception:  # an operation that raises is counted and reported
            code, data = "raised", None
            rnd.problems.append(f"{op.name}: {traceback.format_exc()}")
        rnd.op_seconds.append(perf_counter() - start)
        if data is None:
            rnd.failed += 1
            rnd.problems.append(f"{op.name}: exit code {code}\n{sink.getvalue()}")
            continue
        rnd.verdicts_failed += code == 1
        problems = op.check(data)
        if problems:
            rnd.failed += 1
            rnd.incorrect += 1
            rnd.problems += [f"{op.name}: {p}" for p in problems]
        if op.fates is not None:
            rnd.fates[op.name] = op.fates(data)
    return rnd


def workload_seconds(rounds: list[Round]) -> float:
    """Time of one pass over the workload: the sum over operations of
    each operation's median time across rounds, so that a slow spell of
    the machine during one operation does not move the whole figure."""
    return sum(statistics.median(times) for times in zip(*(r.op_seconds for r in rounds)))


def measure(workload, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed (at least one).  In
    traced mode each untraced round is followed by a traced one."""
    from tracing import Tracer, layer_metrics
    untraced, traced_rounds, layers, spans = [], [], [], []
    # the first round pays one-off costs (lazy imports, allocator growth);
    # kept out of the comparison of traced and untraced rounds
    warmup = [run_round(workload)] if traced else []
    begin = perf_counter()
    while not untraced or perf_counter() - begin < seconds:
        untraced.append(run_round(workload))
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                traced_rounds.append(run_round(workload, tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, tracer.loose_spans))
            spans.append([s.to_json(begin) for s in tracer.spans])
    return warmup, untraced, traced_rounds, layers, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("SYMBOLKIT_THREADS", None)
    import_program()
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    out = OUT / args.workload
    workload = WORKLOADS[args.workload](args.seed, out / "ops")
    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov))
    setup = [cold_start(workload.models) for _ in range(SETUP_REPEATS)]

    warmup, untraced, traced, layers, spans = measure(workload, args.seconds,
                                                      bool(args.trace))
    rounds = warmup + untraced + traced
    attempted = len(rounds) * len(workload.ops)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.incorrect for r in rounds)
    run_s = workload_seconds(untraced)
    record = {
        "workload": args.workload, "trace": args.trace, "provenance": prov,
        "operations": [op.name for op in workload.ops],
        "attempted": attempted, "failed": failed, "correct": correct,
        "verdicts_failed": sum(r.verdicts_failed for r in rounds),
        "op_s": {op.name: [r.op_seconds[i] for r in untraced]
                 for i, op in enumerate(workload.ops)},
        "traced_op_s": {op.name: [r.op_seconds[i] for r in traced]
                        for i, op in enumerate(workload.ops)},
        "setup_s": setup,
        "path_fates": untraced[0].fates,
        "problems": [p for r in rounds for p in r.problems][:20],
    }
    for p in record["problems"]:
        print(f"# problem: {p}", file=sys.stderr)

    if args.trace:
        overhead = workload_seconds(traced) - run_s
        metrics, bases = {}, {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = overhead
                base = f"{100 * overhead / run_s:.2f} % of untraced run_s {run_s:.4g} s"
            else:
                value = statistics.median(m[name][0] for m in layers)
                base = layers[0][name][1]
            metrics[name] = {"value": float(value), "unit": unit}
            bases[name] = base
            print(f"# {args.workload:8s} {name:27s} {value:14.6g} {unit:6s} base: {base}")
        record["layers"] = {k: dict(v, base=bases[k]) for k, v in metrics.items()}
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"spans-seed{args.seed}.jsonl", "w") as fh:
            for n, round_spans in enumerate(spans):
                for s in round_spans:
                    fh.write(json.dumps(dict(s, round=n)) + "\n")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"# {args.workload}: {len(untraced)} rounds, run_s {run_s:.4f} s, "
              f"setup_s {metrics['setup_s']['value']:.4f} s, peak {peak_mb:.1f} MB")
        for i, op in enumerate(workload.ops):
            times = [r.op_seconds[i] for r in untraced]
            print(f"#   {op.name:26s} median {statistics.median(times):8.4f} s "
                  f"over {len(times)} rounds")
    record["metrics"] = metrics
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"run-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
