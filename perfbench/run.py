"""Benchmark runner for strees: timed requests on seeded trees, every output checked.

    python3 perfbench/run.py --workload prufer-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload in turn

A run imports strees from src/ of this checkout and builds the workload's
inputs from the seed (five times; setup_s is the median), writes its tree
files, then repeats whole passes of the workload's fixed request list until
--seconds have gone by. Each request is one CLI command or one ops call, made
in this process with stdout captured. Each request's time is its median over
the passes; a metric sums those per request kind. With --trace 1 the passes
alternate untraced and traced, and the traced ones give the per-layer
metrics. The first output of every request is checked by check.py
after the timed passes; every repeat must equal it byte for byte. The last
line printed is the result as JSON; it is also appended to
perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import types
from time import perf_counter

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
REQUEST_CAP_S = 30.0  # a request running longer fails as "timeout"
PASSES_CAP_S = 120.0  # requests still due this long after the first pass began fail as "timeout"

KIND_METRIC = {
    "decompose": "decompose_s_p50",
    "null-basis": "null_basis_s_p50",
    "range-basis": "range_basis_s_p50",
    "invariants": "invariants_s_p50",
    "stellare-bases": "ops_s_p50",
    "coalescence": "ops_s_p50",
}


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def import_strees():
    """A fresh import of strees from src/, with nothing cached from earlier imports."""
    for name in [n for n in sys.modules if n == "strees" or n.startswith("strees.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    st = types.SimpleNamespace(
        **{name: importlib.import_module(f"strees.{name}") for name in ("cli", "ops", "generators")}
    )
    where = os.path.abspath(sys.modules["strees"].__file__)
    if not where.startswith(SRC + os.sep):
        raise ImportError(f"strees was imported from {where}, not from {SRC}")
    return st


def _vectors(vs):
    return [[{"vertex": v, "coeff": int(x.entries[v])} for v in x.support()] for x in vs]


def serialize(kind: str, result) -> str:
    """Canonical JSON text of an ops result, made outside the timed region."""
    if kind == "stellare-bases":
        obj = {
            "vertices": list(result.tree.vertices),
            "edges": [list(e) for e in result.tree.edges()],
            "null": _vectors(result.null_vectors),
            "range": _vectors(result.range_vectors),
        }
    else:
        obj = dataclasses.asdict(result)
    return json.dumps(obj, sort_keys=True)


def run_request(st, req, cap: float) -> tuple[float, str | None, str | None]:
    """(seconds, output text, error). The output is None when the request failed."""
    buf = io.StringIO()
    result = None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        try:
            if req.argv is not None:
                saved, sys.stdout = sys.stdout, buf
                try:
                    rc = st.cli.main(req.argv)
                finally:
                    sys.stdout = saved
            else:
                rc, result = 0, req.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    except RequestTimeout:
        return cap, None, "timeout"
    except Exception as e:  # a crashing request is a failed operation; the run goes on
        return perf_counter() - start, None, f"{type(e).__name__}: {e}"
    if rc != 0:
        return elapsed, None, f"exit code {rc}"
    return elapsed, (buf.getvalue() if result is None else serialize(req.kind, result)), None


def setup(workload: str, seed: int, workdir: str):
    """Import and build SETUP_REPEATS times; setup_s is the median.

    The tree files are written once, untimed: creating a few hundred small
    files swung the set-up time threefold on ext4, from run to run, and
    that I/O is the benchmark's, not the program's.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        st = import_strees()
        reqs, files = workloads.build(st, workload, seed, workdir)
        times.append(perf_counter() - start)
    for path, text in files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return st, reqs, statistics.median(times)


def run_pass(st, reqs, outputs, log, deadline, tracer=None) -> list[float]:
    """One pass over the request list; returns each request's seconds."""
    gc.collect()
    times = []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        cap = min(REQUEST_CAP_S, deadline - perf_counter())
        if cap > 0:
            dt, text, err = run_request(st, req, cap)
        else:
            dt, text, err = REQUEST_CAP_S, None, "timeout"
        log["attempted"] += 1
        times.append(dt)
        if err is not None:
            log["failed"] += 1
            log["errors"].append(f"request {i} ({req.kind}): {err}")
        elif i not in outputs:
            outputs[i] = text
        elif text != outputs[i]:
            log["errors"].append(f"request {i} ({req.kind}): output differs from the first pass")
            log["mismatch"] = True
    return times


def end_to_end(reqs, passes) -> dict:
    """Each request's median over the passes, summed over the pass per metric.

    Summing per-request medians keeps the whole fixed mix in every figure,
    while a stall that hits one request in one pass drops out.
    """
    typical = [statistics.median(p[i] for p in passes) for i in range(len(reqs))]
    values = dict.fromkeys(KIND_METRIC.values(), 0.0)
    work = vertices = sweep = trees = 0
    for req, dt in zip(reqs, typical):
        if req.kind == "sweep":
            sweep += dt
            trees += req.order
        else:
            values[KIND_METRIC[req.kind]] += dt
            work += dt
            vertices += req.order
    values["vertices_per_s"] = vertices / work
    values["trees_per_s"] = trees / sweep
    return values


def check_outputs(reqs, outputs) -> list[str]:
    """Check each distinct output once; null bases first, since others use them."""
    problems = []
    null_vecs = {}
    for i in sorted(outputs, key=lambda i: reqs[i].kind != "null-basis"):
        req = reqs[i]
        try:
            vecs = check.check_request(req, outputs[i], null_vecs.get(id(req.tree)))
        except check.CheckError as e:
            problems.append(f"request {i} ({req.kind}): {e}")
            continue
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            problems.append(f"request {i} ({req.kind}): malformed output: {e!r}")
            continue
        if vecs is not None:
            null_vecs[id(req.tree)] = vecs
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        st, reqs, setup_s = setup(workload, seed, workdir)
        outputs: dict[int, str] = {}
        log = {"attempted": 0, "failed": 0, "errors": [], "mismatch": False}
        passes, layers = [], []
        tracer = tracing.Tracer() if trace else None
        start = perf_counter()
        deadline = start + PASSES_CAP_S
        while True:
            # a traced run alternates untraced and traced passes, so both see
            # the same warm-up and drift and their ratio is the overhead
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.keep_spans = not layers
                tracer.install()
            passes.append(run_pass(st, reqs, outputs, log, deadline, tracer if traced else None))
            if traced:
                tracer.uninstall()
                layers.append(tracer.take())
            now = perf_counter()
            if (now - start >= seconds or now >= deadline) and (not trace or layers):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_outputs(reqs, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = {m: statistics.median_low(layer[m] for layer in layers) for m in tracing.METRICS}
        untraced_wall = statistics.median(sum(p) for p in passes[0::2])
        traced_wall = statistics.median(sum(p) for p in passes[1::2])
        values["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
        tracer.write(os.path.join(OUT, f"trace-{workload}-{seed}.jsonl"),
                     {"workload": workload, "seed": seed, "passes": len(layers),
                      "requests": [r.kind for r in reqs], "per_pass": layers})
    else:
        values = end_to_end(reqs, passes)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for line in log["errors"] + problems:
        print(line, file=sys.stderr)
    return {
        "correct": not problems and not log["mismatch"],
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": metrics,
        "passes": len(passes),
    }


def _report(workload: str, res: dict) -> None:
    print(f"{workload}: {res['passes']} passes, {res['attempted']} requests attempted, "
          f"{res['failed']} failed, outputs {'correct' if res['correct'] else 'WRONG'}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(OUT, "results.jsonl"),
                   help="JSON-lines file each result is appended to")
    args = p.parse_args(argv)

    if args.workload == "all":
        # one child process per workload, one at a time, so peak RSS is per workload
        results = {}
        for w in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{w}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            results[w] = json.loads(lines[-1])
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1

    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"cannot import strees from {SRC}: {e}", file=sys.stderr)
        return 2
    _report(args.workload, res)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "result": res}, sort_keys=True) + "\n")
    del res["passes"]
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
