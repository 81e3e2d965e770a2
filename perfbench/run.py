"""The DUST query-path benchmark: one run of one workload.

    python3 perfbench/run.py --workload ugen-hot --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the same run is made with
spans recorded around the calls into each layer and reports the per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it name
every metric with its unit, the sample counts and the environment.

The run exits non-zero when any answer fails its check, or when its digest
differs from the one recorded in ``digests.json`` for its seed.
"""

from __future__ import annotations

import argparse
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
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("ugen-hot", "tall-batch", "serve-ingest")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None


def program_env() -> dict[str, str]:
    """The environment child processes get: the checkout's ``src`` first.

    BLAS thread counts are deliberately left as the caller set them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program() -> None:
    """Import ``repro`` from this checkout, never from anywhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: repro was imported from {repro.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # numpy too old for mode="dicts"
        pass
    sha = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to name
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads_env": {key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")},
    }


def metric_specs(trace: bool) -> list[dict]:
    if BENCHMARK is None:
        sys.exit("error: BENCHMARK.json is missing beside perfbench/")
    return BENCHMARK["per_layer" if trace else "end_to_end"]


def recorded_digest(workload: str, seed: int) -> str | None:
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; non-zero if any run failed."""
    codes = {}
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            command += ["--record", args.record]
        codes[workload] = subprocess.run(command, cwd=ROOT).returncode
    print(" ".join(f"{workload}: exit {code}" for workload, code in codes.items()))
    return max(codes.values())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="JSONL", help="append this run's record to a file (for compare.py)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    import_program()
    import workloads

    if args.probe_setup:
        print(json.dumps({"setup_s": workloads.probe_setup(args.workload, args.seed)}))
        return 0

    specs = metric_specs(bool(args.trace))
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.workload == "serve-ingest":
            outcome = workloads.run_serve(args.seed, args.seconds, bool(args.trace), scratch, program_env())
        else:
            from spans import Tracer

            tracer = Tracer() if args.trace else None
            outcome = workloads.run_in_process(args.workload, args.seed, args.seconds, tracer, program_env())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    expected = recorded_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == outcome.digest
    if not digest_ok:
        outcome.fail(f"digest {outcome.digest} differs from the recorded {expected}")
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {spec["name"]: {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]} for spec in specs}
    env = environment()

    from stats import highest_supported, percentile

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} wall_s {time.perf_counter() - started:.1f}")
    print(f"digest {outcome.digest} ({'matches the recorded one' if expected else 'no recorded digest for this seed'})"
          if digest_ok else f"digest {outcome.digest} MISMATCH, recorded {expected}")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        samples = len(outcome.latencies)
        tail = highest_supported(samples)
        tail_text = (
            f"p{tail:g} {percentile(outcome.latencies, tail):.6g} s" if tail
            else "no percentile has 10 samples beyond it"
        )
        print(f"  {'query_tail':<24} {tail_text} (n={samples})")
        print(f"  {'ingest_p50_s':<24} {outcome.metrics['ingest_p50_s']:.6g} s (not gated: see NOTES.md)")
        print(f"  {'failed_frac':<24} {outcome.failed / max(1, outcome.attempted):.6g} frac")
    for problem in outcome.problems:
        print(f"  problem: {problem}")

    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "digest": outcome.digest, "env": env, "result": result}
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
