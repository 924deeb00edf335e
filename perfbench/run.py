"""crosscheck benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload desk|wide|store|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from ``--seed`` in a child process and
written to ``.bench_work/`` before anything is timed. The next op starts
only after the previous one returns, and every op's output is checked
outside its timed part. Ops run in whole passes over the inputs until
``--seconds`` have passed and at least ``MIN_OPS`` ops were timed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half with every layer wrapped (see ``tracing.py``), and the JSON carries
the per-layer metrics. The lines before it stamp the run and print every
metric by name, with its unit and sample count. The exit code is non-zero
when an output check fails, when the inputs at the default seed differ
from ``pins.json``, or when there is no ``src/crosscheck`` to measure.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 1000  # so that at least ten samples lie beyond p99
PROBE_EVERY_NS = 100_000_000
# The probe's time at full speed on the 2-vCPU VM the bench was tuned on.
# Any constant would do: it only sets the unit of the scaled latencies.
PROBE_REF_NS = 650_000
IMPORT_REPS = 5  # fresh interpreters timing `import crosscheck`
LOAD_REPS = {"desk": 3, "wide": 3, "store": 5}
WORKLOADS = ("desk", "wide", "store")
PIPELINES = ("desk", "wide")


def probe_kernel() -> int:
    """Fixed pure-Python work (~0.65 ms on a 2-vCPU VM) that gauges the host's current speed."""
    counts: dict = {}
    for i in range(2500):
        key = ("k", i % 301)
        counts[key] = counts.get(key, 0) + len(str(i))
    return len(counts)


class Samples:
    """Latencies of one phase, scaled to a reference host speed.

    On a small shared VM the vCPU can switch between two speeds about 2x
    apart every few seconds, invisibly to the guest: no steal time is
    reported and CPU time drifts with wall time. So before an op, at most
    every ``PROBE_EVERY_NS``, a fixed pure-Python probe is timed, and each
    op's latency is scaled by ``PROBE_REF_NS`` over the mean of the two
    probes around it. Raw medians moved 15-20% between runs; scaled ones
    moved 3-9%.
    """

    def __init__(self, n_inputs: int) -> None:
        self.n_inputs = n_inputs
        # Flat arrays, so that keeping every sample adds little to peak RSS.
        self.order = array("i")
        self.starts = array("q")
        self.every = array("q")
        self.probes: list[tuple[int, int]] = []  # (start, duration) in ns
        self._next_probe = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def probe(self, force: bool = False) -> None:
        start = time.perf_counter_ns()
        if force or start >= self._next_probe:
            probe_kernel()
            end = time.perf_counter_ns()
            self.probes.append((start, end - start))
            self._next_probe = end + PROBE_EVERY_NS

    def add(self, idx: int, start: int, ns: int) -> None:
        self.order.append(idx)
        self.starts.append(start)
        self.every.append(ns)

    def fault(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.extend(f"{where}: {p}" for p in problems)

    def scaled_ns(self) -> list[float]:
        starts = [t for t, _ in self.probes]
        out = []
        for start, ns in zip(self.starts, self.every):
            i = bisect.bisect_right(starts, start)
            after = self.probes[min(i, len(starts) - 1)][1]
            out.append(ns * PROBE_REF_NS / ((self.probes[max(i - 1, 0)][1] + after) / 2))
        return out

    def ops_per_s(self) -> float:
        """Timed ops over their scaled time; the checks between ops are not timed."""
        scaled = self.scaled_ns()
        return len(scaled) / (sum(scaled) / 1e9)

    def input_ns(self) -> list[float]:
        """Each input's median scaled latency."""
        by_input: list[list[float]] = [[] for _ in range(self.n_inputs)]
        for idx, ns in zip(self.order, self.scaled_ns()):
            by_input[idx].append(ns)
        return [statistics.median(v) if v else 0.0 for v in by_input]


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def stamp(workload: str, seed: int, trace: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {"git_sha": sha, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "workload": workload, "seed": seed, "trace": trace}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(sorted(values), n=100, method="inclusive")[q - 1]


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0


def store_size_slope(op_ns: list[float]) -> float:
    """Slope of store op time against store size (ops applied), over octave bins from 8 up."""
    bins: dict[int, list[float]] = {}
    for idx, ns in enumerate(op_ns):
        if idx + 1 >= 8:
            bins.setdefault(int(math.log2(idx + 1)), []).append(ns)
    return loglog_slope([2 ** (b + 0.5) for b in bins], [sum(v) / len(v) for v in bins.values()])


# -- the closed loop -----------------------------------------------------------


def run_passes(seconds: float, min_ops: int, samples: Samples, one_pass) -> int:
    """Whole passes until ``seconds`` have passed and ``min_ops`` ops were timed."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds or len(samples.every) < min_ops:
        one_pass(passes)
        passes += 1
    samples.probe(force=True)
    return passes


def timed(samples: Samples, idx: int, tracer, fn, *args):
    """Run one op; return its result, or None after recording the failure."""
    samples.attempted += 1
    samples.probe()
    if tracer is not None:
        tracer.op = samples.attempted
        tracer.active = True
    t0 = time.perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # any raise other than an abstention fails the op
        samples.add(idx, t0, time.perf_counter_ns() - t0)
        samples.fault(f"input {idx}", [f"{type(exc).__name__}: {exc}"])
        return None
    finally:
        if tracer is not None:
            tracer.active = False
    samples.add(idx, t0, time.perf_counter_ns() - t0)
    return out


def pipeline_phase(items, seconds: float, min_ops: int, samples: Samples, texts: list, tracer=None) -> dict:
    """Run the scenarios in passes; the first pass also scores answers and digests the logs."""
    from ops import answer_correct, check_pipeline, pipeline_op

    first = {"correct": 0, "verify_calls": 0}
    audit = hashlib.sha256()

    def one_pass(pass_no: int) -> None:
        for idx, (scenario, config, golden) in enumerate(items):
            out = timed(samples, idx, tracer, pipeline_op, scenario, config)
            if out is None:
                continue
            result, text = out
            problems = check_pipeline(result, text)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if texts[idx] is None:
                texts[idx] = digest
            elif texts[idx] != digest:
                problems.append("audit log text differs from an earlier pass")
            if problems:
                samples.fault(scenario.name, problems)
            if pass_no == 0:
                first["correct"] += answer_correct(result, scenario)
                first["verify_calls"] += result.verify_calls
                if golden:
                    audit.update(text.encode("utf-8"))

    first["passes"] = run_passes(seconds, min_ops, samples, one_pass)
    first["audit_sha256"] = audit.hexdigest()
    return first


def store_phase(stream, seconds: float, min_ops: int, samples: Samples, digests: list, tracer=None) -> dict:
    """Run the op stream in passes, each from an empty store, checked at its end."""
    from crosscheck.facts import FactStore
    from ops import StoreReference, check_store, check_store_op, store_op

    last = {}

    def one_pass(pass_no: int) -> None:
        store = FactStore()
        ref = StoreReference()
        for idx, op in enumerate(stream):
            out = timed(samples, idx, tracer, store_op, store, op)
            if out is not None:
                problems = check_store_op(ref, store, op, out)
                if problems:
                    samples.fault(f"op {idx}", problems)
        problems, digest = check_store(store)
        digests.append(digest)
        if digest != digests[0]:
            problems.append("store dump differs from the first pass")
        if problems:
            samples.fault(f"pass {pass_no}", problems)
        last.update(promotions=ref.promotions, matched=ref.matched)

    last["passes"] = run_passes(seconds, min_ops, samples, one_pass)
    return last


# -- set-up and the two kinds of run --------------------------------------------


def setup(workload: str, seed: int, out: Path) -> tuple[object, float, str, str]:
    """Generate the inputs, then time import plus load-and-validate of every input file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    input_sha = json.loads(proc.stdout.strip().splitlines()[-1])["input_sha256"]
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import crosscheck; print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                    text=True, check=True).stdout) for _ in range(IMPORT_REPS)]
    sys.path.insert(0, str(SRC))
    import inputs

    load = inputs.load_store if workload == "store" else inputs.load_pipeline
    loads = []
    data = None
    for _ in range(LOAD_REPS[workload]):
        data = None
        gc.collect()
        t0 = time.perf_counter()
        data = load(out)
        loads.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(loads)
    return data, setup_s, input_sha, f"median of {len(imports)} imports + median of {len(loads)} loads"


def end_to_end(workload: str, data, seconds: float, setup_s: float, setup_note: str):
    samples = Samples(len(data))
    if workload in PIPELINES:
        first = pipeline_phase(data, seconds, MIN_OPS, samples, [None] * len(data))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        accuracy = (first["correct"] / len(data), "share", f"first pass, {len(data)} scenarios")
        verify = (first["verify_calls"] / len(data), "count", f"first pass, {len(data)} scenarios")
        info = {"audit_sha256": first["audit_sha256"], "passes": first["passes"], "inputs": len(data)}
    else:
        last = store_phase(data, seconds, MIN_OPS, samples, [])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The store's own verification is the consistency read before each promotion.
        accuracy = (last["matched"] / last["promotions"], "share", f"last pass, {last['promotions']} promotions")
        verify = (last["promotions"] / len(data), "count", f"consistency reads, {len(data)} ops")
        info = {"passes": last["passes"], "inputs": len(data)}
    scaled = samples.scaled_ns()
    beyond = len(scaled) - math.ceil(0.99 * len(scaled))
    note = f"{len(scaled)} ops in {info['passes']} passes, scaled by {len(samples.probes)} probes"
    metrics = {
        "setup_s": (setup_s, "s", setup_note),
        "ops_per_s": (len(scaled) / (sum(scaled) / 1e9), "1/s", note),
        "op_us_p50": (percentile(scaled, 50) / 1000, "us", note),
        "op_us_p99": (percentile(scaled, 99) / 1000, "us", f"{note}, {beyond} beyond"),
        "peak_rss_mb": (rss_mb, "MB", "whole process, up to the end of the timed loop"),
        "ok_share": (1 - samples.failed / samples.attempted, "share", f"{samples.attempted} ops"),
        "accuracy": accuracy,
        "verify_calls_per_op": verify,
    }
    return metrics, samples, info


def per_layer(workload: str, data, seconds: float, input_dir: Path):
    """Half the time untraced, half traced; the traced run must change no output."""
    import inputs
    from tracing import Tracer, layer_metrics

    half = seconds / 2
    untraced, traced = Samples(len(data)), Samples(len(data))
    tracer = Tracer()
    if workload in PIPELINES:
        texts: list = [None] * len(data)
        base = pipeline_phase(data, half, 0, untraced, texts)
        tracer.install()
        try:
            tracer.active = True
            loads = len(inputs.load_pipeline(input_dir))
            tracer.active = False
            run = pipeline_phase(data, half, 0, traced, texts, tracer)
        finally:
            left = tracer.remove()
        same = run["audit_sha256"] == base["audit_sha256"]
        info = {"audit_sha256": base["audit_sha256"], "traced_audit_sha256": run["audit_sha256"]}
        statements = [sum(len(raw.get("steps", {})) for e in s.experts for raw in e.raw_traces) for s, _, _ in data]
        time_slope, size_slope = loglog_slope(statements, untraced.input_ns()), 0.0
    else:
        digests: list[str] = []
        store_phase(data, half, 0, untraced, digests)
        n_untraced = len(digests)
        loads = 0
        tracer.install()
        try:
            store_phase(data, half, 0, traced, digests, tracer)
        finally:
            left = tracer.remove()
        same = len(set(digests)) == 1
        info = {"store_sha256": digests[0], "traced_store_sha256": digests[n_untraced]}
        time_slope, size_slope = 0.0, store_size_slope(untraced.input_ns())

    total = Samples(0)
    for part in (untraced, traced):
        total.attempted += part.attempted
        total.failed += part.failed
        total.problems += part.problems
    if left:
        total.fault("tracing", [f"wrappers left installed: {', '.join(left)}"])
    if not same:
        total.fault("tracing", ["the traced run's digest differs from the untraced run's"])

    metrics = layer_metrics(tracer, traced.attempted, loads)
    metrics["engine.time_vs_statements_slope"] = (time_slope, "ratio")
    metrics["facts.op_time_vs_size_slope"] = (size_slope, "ratio")
    metrics["trace.overhead"] = (traced.ops_per_s() / untraced.ops_per_s(), "ratio")
    tracer.write(WORK / f"spans-{workload}.tsv")
    info.update(spans=len(tracer.span_name), traced_ops=traced.attempted, untraced_ops=untraced.attempted)
    note = f"{traced.attempted} traced ops"
    return {k: (v, u, note) for k, (v, u) in metrics.items()}, total, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crosscheck benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in its own process in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if not (SRC / "crosscheck" / "__init__.py").is_file():
        return fail(f"no crosscheck sources under {SRC}; run from the root of a source checkout", 2)

    input_dir = WORK / f"{args.workload}-{args.seed}"
    data, setup_s, input_sha, setup_note = setup(args.workload, args.seed, input_dir)
    import crosscheck

    if Path(crosscheck.__file__).resolve().parent != (SRC / "crosscheck").resolve():
        return fail(f"imported crosscheck from {crosscheck.__file__}, not from {SRC}", 2)
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    if args.seed == pins["seed"] and input_sha != pins["input_sha256"][args.workload]:
        return fail(f"{args.workload} inputs at seed {args.seed} hash to {input_sha}, not to the pinned "
                    f"{pins['input_sha256'][args.workload]}: the generators changed", 3)

    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of every collection
    if args.trace:
        metrics, samples, info = per_layer(args.workload, data, args.seconds, input_dir)
    else:
        metrics, samples, info = end_to_end(args.workload, data, args.seconds, setup_s, setup_note)
    shutil.rmtree(input_dir, ignore_errors=True)  # every run writes its inputs afresh
    if args.workload == "desk" and args.seed == pins["seed"]:
        # Informational only: log bytes may change on purpose.
        info["audit_matches_golden"] = info["audit_sha256"] == pins["desk_audit_sha256"]

    print(json.dumps({"stamp": stamp(args.workload, args.seed, args.trace), "input_sha256": input_sha, **info}))
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload:6s} {name:34s} {value:14.6g} {unit:6s} ({note})")
    print(f"{args.workload:6s} {'failed_share':34s} {samples.failed / samples.attempted:14.6g} {'share':6s} "
          f"({samples.failed} of {samples.attempted} ops)")
    for problem in samples.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if samples.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
