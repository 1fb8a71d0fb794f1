"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload scratch-full-d512 --seed 101 \
        --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src``. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. Details of every round, the environment
stamp and, when traced, the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scratch-full-d512", "pretrain-adapt-d512")
BLAS_THREADS = 1  # one worker: steadier on shared cores; capped at nproc
SETUP_PROBES = 5
MIN_ROUNDS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pin_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip()


def stamp(np, nproc, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "gnnpeft").glob("*.py")))
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "blas_threads": threads,
            "blas_threads_reported": blas_threads_in_use(),
            "src_gnnpeft_lines": lines}


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_seconds(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                              workload, str(seed)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=30, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def run_rounds(workloads, workload, setup, scratch, seconds, tracer):
    """Whole rounds until the next one would end past ``seconds`` (at least
    MIN_ROUNDS). With a tracer, rounds alternate untraced and traced.

    Returns the rounds and the peak RSS after the first one: one round is
    what one CLI run does, and later rounds would make the peak depend on
    how many rounds fit in the run."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append((traced, workloads.run_round(workload, setup, scratch,
                                                   tracer if traced else None)))
        if len(rounds) == 1:
            first_peak = peak_rss_mb()
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, first_peak


def tally(rounds):
    """attempted, failed, correct, problems. A round whose digest differs
    from the first clean round's fails all its operations."""
    attempted = failed = 0
    correct = True
    problems = []
    first = None
    for i, (_, r) in enumerate(rounds):
        attempted += r.planned
        lost = r.planned - r.passed
        if r.check_failures:
            correct = False
        if not r.raised and not r.check_failures:
            digest = r.digest.hexdigest()
            first = first or digest
            if digest != first:
                lost = r.planned
                correct = False
                problems.append(f"round {i}: result digest differs from round 0")
        failed += lost
        problems += [f"round {i}: {p}" for p in r.problems]
    return attempted, failed, correct, problems


def end_to_end(rounds, setup_samples, eval_graphs, peak_mb):
    med = statistics.median
    rs = [r for _, r in rounds]
    return {
        "setup_s": med(setup_samples),
        "run_s": med([sum(r.phases.values()) for r in rs]),
        "finetune_graphs_per_s": med([r.calls.graphs["finetune"] / r.calls.seconds["finetune"]
                                      for r in rs]),
        "eval_graphs_per_s": eval_graphs / med([r.phases["eval"] for r in rs]),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workloads, rounds, setup, tracer):
    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    n = len(traced)
    tot = tracer.totals()

    def incl(name):
        return tot.get(name, {}).get("incl_s", 0.0) / n

    def own(name):
        return tot.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return tot.get(name, {}).get("calls", 0) / n

    gflop = workloads.train_gflop(setup, traced[0].calls)
    step_s = (incl("training.train_supervised")
              - tracer.child_incl("training.train_supervised",
                                  "training.evaluate_auc") / n)
    pretrain_rates = [r.calls.graphs["pretrain"] / r.calls.seconds["pretrain"]
                      for r in plain if r.calls.graphs["pretrain"]]
    metrics = {
        "graphs.batch.s": incl("graphs.batch"),
        "graphs.batch.calls": calls("graphs.batch"),
        "rng.streams": calls("rng.stream_init"),
        "rng.stream_init.s": incl("rng.stream_init"),
        "tensor.backward.s": own("tensor.backward"),
        "tensor.tape_nodes": tracer.counts["tensor.tape_nodes"] / n,
        "model.message_pass.calls": calls("model.message_pass"),
        "registry.checkpoint_bytes": statistics.mean(r.checkpoint_bytes for r in traced),
        "training.adam_step.calls": calls("training.adam_step"),
        "training.pretrain_edgepred.graphs_per_s":
            statistics.median(pretrain_rates) if pretrain_rates else 0.0,
        "analysis.train_gflop": gflop,
        "analysis.achieved_gflop_per_s": gflop / step_s if step_s > 0 else 0.0,
        "trace.overhead_s": (statistics.median(sum(r.phases.values()) for r in traced)
                             - statistics.median(sum(r.phases.values()) for r in plain)),
    }
    for name in ("tensor.scatter_sum", "tensor.gather_rows", "tensor.segment_mean_pool",
                 "tensor.matmul", "tensor.batchnorm1d", "model.message_pass",
                 "model.forward_train", "model.forward_eval", "peft.adapter_forward",
                 "peft.apply_peft", "registry.zero_grads", "registry.save_checkpoint",
                 "registry.load_checkpoint", "training.adam_step",
                 "training.evaluate_auc", "training.roc_auc"):
        metrics[f"{name}.s"] = incl(name)
    for name in ("training.train_supervised", "training.pretrain_edgepred",
                 "analysis.sweep"):
        metrics[f"{name}.self_s"] = own(name)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=101, help="dataset seed")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gnnpeft" / "__init__.py").is_file():
        return fail(f"no program source at {SRC / 'gnnpeft'}; run from a checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    nproc, threads = pin_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import numpy as np
    import gnnpeft
    import tracing
    import workloads

    if Path(gnnpeft.__file__).resolve().parent != (SRC / "gnnpeft").resolve():
        return fail(f"imported gnnpeft from {gnnpeft.__file__}, not {SRC}")
    env = stamp(np, nproc, threads)
    if env["blas_threads_reported"] not in (None, threads):
        return fail(f"BLAS runs {env['blas_threads_reported']} threads, pinned {threads}")

    setup_samples = setup_seconds(args.workload, args.seed) if not args.trace else []
    setup = workloads.Setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds, peak_mb = run_rounds(workloads, args.workload, setup, scratch,
                                     args.seconds, tracer)
    finally:
        shutil.rmtree(scratch)
    attempted, failed, correct, problems = tally(rounds)

    section = "per_layer" if args.trace else "end_to_end"
    values = (per_layer(workloads, rounds, setup, tracer) if args.trace
              else end_to_end(rounds, setup_samples, len(setup.train) + len(setup.test),
                              peak_mb))
    if set(values) != {m["name"] for m in spec[section]}:
        return fail(f"computed metrics differ from BENCHMARK.json {section}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": env, "setup_samples_s": setup_samples,
        "rounds": [{"traced": t, "phases_s": r.phases, "graphs": r.calls.graphs,
                    "entry_s": r.calls.seconds, "planned": r.planned,
                    "passed": r.passed, "digest": r.digest.hexdigest()}
                   for t, r in rounds],
        "problems": problems, "metrics": metrics,
    }
    if tracer is not None:
        details["span_totals"] = tracer.totals()
        tracer.write(OUT / f"{tag}-spans.npz")
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print("stamp " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
