"""Benchmark curlab's pipelines end to end, or per layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density-defect --seed 1 --seconds 30 --trace 0

With --trace 0 the run starts two fresh processes of its own, one after the
other, each on one thread (rounds). A round imports curlab from `src/`,
builds the workload's inputs, runs one cold pass, then warm passes for its
share of --seconds, and reports its figures; the run prints the medians over
the rounds. Each pass runs every checked operation of the workload once
(see workloads.py). Pass times are reported in yardsticks (see
`_yardstick`), which cancels the shared host's drifts in speed; the stamp
keeps their wall seconds too.

With --trace 1 the run stays in one process: it builds the inputs three
times, runs a traced build and a traced cold pass, then warm passes that
alternate between untraced and traced until --seconds have passed, records
spans around the calls into each curlab module, and prints the per-layer
figures instead of the end-to-end ones.

The last line of standard output is the JSON result; the result and the
spans also go to perfbench/out/.
"""

import os

# one thread: numpy's BLAS must not start a pool of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_WARM = 2
# fresh processes per end-to-end run
ROUNDS = 2
# a run must end within 180 s; the rounds share what is left of this
RUN_LIMIT_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--round", type=int, default=None,
                   help="run one round in this process and print its raw figures")
    return p.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _versions(curlab) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "clip_backend": curlab.clip_backend,
    }


def _yardstick() -> float:
    """Time one run of a fixed computation that needs nothing from curlab.

    It mixes small numpy calls, whole-array arithmetic and an interpreter
    loop, as curlab's passes do, and takes about 30 ms on the machine in
    README.md. Timed around every operation, it measures how fast the host
    runs at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    pts = np.random.default_rng(0).standard_normal((10_000, 4))
    for k in range(400):
        q = pts[25 * k:25 * (k + 1)]
        np.linalg.norm(q @ q.T)
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        x = np.sqrt(x * x + 1.0) - 1.0
    s = 0
    for i in range(100_000):
        s += i % 7
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes of one workload and keeps their counts and outputs.

    With yardstick=True each operation is also timed in yardsticks: its time
    over the mean of the yardstick times just before and just after it.
    """

    def __init__(self, workload, inputs, seed, csv_dir, yardstick=False):
        self.workload = workload
        self.yardstick = yardstick
        self.inputs = inputs
        self.seed = seed
        self.csv_dir = csv_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def run_pass(self, label: str):
        """Run every operation once; return the pass's seconds and yardsticks."""
        from workloads import Pass

        p = Pass(self.seed, self.csv_dir)
        seconds = yardsticks = 0.0
        before = _yardstick() if self.yardstick else 0.0
        for name, op in self.workload.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                op(self.inputs, p)
            except Exception:  # a failed operation is counted; the pass goes on
                self.failed += 1
                print(f"# {label}: operation {name!r} failed:\n"
                      + traceback.format_exc(), file=sys.stderr)
            dt = time.perf_counter() - t0
            seconds += dt
            if self.yardstick:
                after = _yardstick()
                yardsticks += dt / (0.5 * (before + after))
                before = after
        self.errors += [f"{label}: {e}" for e in p.errors]
        if self.reference is None:
            self.reference = p.outputs
        elif p.outputs != self.reference:
            differ = [k for (k, v), (_, w) in zip(p.outputs, self.reference) if v != w]
            if len(p.outputs) != len(self.reference):
                differ.append("the number of outputs")
            self.errors.append(f"{label}: outputs differ from the cold pass in {differ}")
        return seconds, yardsticks

    def digest(self) -> str:
        """Hash of the cold pass's outputs, to compare rounds bit for bit."""
        h = hashlib.sha256()
        for key, value in self.reference or []:
            h.update(key.encode() + b"\0" + value + b"\0")
        return h.hexdigest()


def _import_curlab():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import curlab
    from curlab import blowup, calibrations, cli, currents, examples, exterior, jholo  # noqa: F401
    return curlab, time.perf_counter() - t0


def _workload(name):
    from workloads import WORKLOADS

    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
    return workload


def _round(args) -> int:
    """One fresh-process round: set-up, a cold pass, warm passes for --seconds.

    Prints its raw figures as one JSON line. A further warm pass starts only
    if the last one, repeated, would end within --seconds of the cold
    pass's start; there is always at least one.
    """
    curlab, import_s = _import_curlab()
    workload = _workload(args.workload)
    if workload is None:
        return 2
    csv_dir = HERE / "out" / f"csv-{args.workload}-{os.getpid()}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        inputs = workload.build(args.seed, csv_dir)
        build_s = time.perf_counter() - t0
        runner = Runner(workload, inputs, args.seed, csv_dir, yardstick=True)
        _yardstick()  # its first run pays numpy's first calls
        start = time.perf_counter()
        cold = runner.run_pass(f"round {args.round} cold pass")
        warm, last = [], 0.0
        while not warm or time.perf_counter() - start + last <= args.seconds:
            t0 = time.perf_counter()
            warm.append(runner.run_pass(f"round {args.round} warm pass {len(warm) + 1}"))
            last = time.perf_counter() - t0
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)
    print(json.dumps({
        "import_s": import_s, "build_s": build_s, "cold": cold, "warm": warm,
        "peak_rss_mb": _peak_rss_mb(), "attempted": runner.attempted,
        "failed": runner.failed, "errors": runner.errors, "digest": runner.digest(),
        "versions": _versions(curlab),
    }))
    return 0


def _end_to_end(args):
    """Run the rounds one after the other and take medians over them.

    Returns (values, attempted, failed, errors, stamp), or an exit code if
    a round did not finish.
    """
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the round
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    n = ROUNDS
    deadline = time.monotonic() + RUN_LIMIT_S
    rounds = []
    for k in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / n),
               "--trace", "0", "--round", str(k)]
        try:
            # subprocess.run kills the round and waits for it on a timeout
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"round {k} did not end within the run's {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"round {k} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    errors = [e for r in rounds for e in r["errors"]]
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("the rounds' cold-pass outputs differ")
    values = {
        "setup_s": statistics.median(r["import_s"] + r["build_s"] for r in rounds),
        "first_pass_rel": statistics.median(r["cold"][1] for r in rounds),
        "pass_rel": statistics.median(w[1] for r in rounds for w in r["warm"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    stamp = dict(rounds[0]["versions"])
    stamp["rounds"] = [{k: r[k] for k in ("import_s", "build_s", "cold", "warm", "peak_rss_mb")}
                       for r in rounds]
    return (values, sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds),
            errors, stamp)


def _traced(args):
    """Per-layer figures from one process; see tracing.py.

    Returns (values, attempted, failed, errors, stamp) and writes the spans.
    """
    curlab, _ = _import_curlab()
    import tracing

    workload = _workload(args.workload)
    if workload is None:
        return 2
    csv_dir = HERE / "out" / f"csv-{args.workload}-{os.getpid()}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(SETUP_REPEATS):
            inputs = None
            inputs = workload.build(args.seed, csv_dir)
        # a traced build of fresh inputs, so the cold pass finds no cache
        tracer = tracing.Tracer()
        tracer.install()
        inputs = None
        phases = {}
        lo = len(tracer.spans)
        inputs = workload.build(args.seed, csv_dir)
        phases["setup"] = (lo, len(tracer.spans))

        runner = Runner(workload, inputs, args.seed, csv_dir)
        start = time.perf_counter()
        lo = len(tracer.spans)
        first_s, _ = runner.run_pass("cold pass")
        phases["first"] = (lo, len(tracer.spans))
        tracer.uninstall()
        plain, traced, warm_spans = [], [], []
        while (len(plain) + len(traced) < MIN_WARM
               or time.perf_counter() - start < args.seconds):
            k = len(plain) + len(traced)
            if k % 2 == 1:
                tracer.install()
                lo = len(tracer.spans)
                traced.append(runner.run_pass(f"warm pass {k + 1} (traced)")[0])
                warm_spans.append((lo, len(tracer.spans)))
                tracer.uninstall()
            else:
                plain.append(runner.run_pass(f"warm pass {k + 1}")[0])
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)

    values = tracing.per_layer(tracer.spans, phases["setup"], phases["first"], warm_spans)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    phases["warm"] = warm_spans
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}-trace1.jsonl", phases)
    stamp = _versions(curlab)
    stamp["passes_s"] = {"cold": first_s, "warm": plain, "warm_traced": traced}
    stamp["peak_rss_mb"] = _peak_rss_mb()
    return values, runner.attempted, runner.failed, runner.errors, stamp


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "curlab" / "__init__.py").is_file():
        print(f"no curlab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    if args.round is not None:
        return _round(args)

    done = _traced(args) if args.trace else _end_to_end(args)
    if isinstance(done, int):
        return done
    values, attempted, failed, errors, stamp = done

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "commit": _git_commit(), **stamp,
             "attempted": attempted, "failed": failed}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (HERE / "out" / f"result-{tag}.json").write_text(
        json.dumps({"stamp": stamp, "errors": errors, **result}, indent=1) + "\n")
    for e in errors:
        print(f"# check failed: {e}", file=sys.stderr)
    print("# " + json.dumps(stamp))
    for name, m in metrics.items():
        print(f"# {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
