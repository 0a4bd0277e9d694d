"""Benchmark of the exotic-invariants library and CLI.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 24 --trace 0

Runs one workload in this process as one closed-loop client: each
operation starts when the previous one has returned.  The run is a series
of passes.  Each pass draws its own inputs from the seed and its index
(see workloads.py) before it is timed, and every result is checked.
Passes start until --seconds have passed.  A result must repeat exactly
any earlier result for the same input, and each pass's digest any
earlier run's for the same seed and code.  Times are reported at a fixed
reference speed of the host (see reference_seconds).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints per-layer metrics (see tracing.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-mix", "lattice-render", "snf-invariants", "snf-transforms")
SETUP_SPAWNS = 25

# Set-up probe: a fresh interpreter imports the library and runs one small
# operation of the workload's kind, then reports ready.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] in ("cli-mix", "lattice-render"):
    import contextlib, io
    from exotic_invariants import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["milnor", "1", "0", "--json"])
else:
    from exotic_invariants import abelian, snf
    m = snf.IntMatrix.from_rows([[2, 4], [6, 8]])
    abelian.cokernel_group(m)
    u, d, v = snf.smith_normal_form(m)
    u @ m @ v
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# Peak-memory probe: a fresh interpreter draws the first pass's inputs and
# runs each operation once, unchecked, then reports its high-water mark.
RSS_PROBE = """
import resource, sys
sys.path[:0] = sys.argv[1:3]
import workloads
for op in workloads.build(sys.argv[3], int(sys.argv[4]), 0):
    try:
        op.call()
    except Exception:
        pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Host speed.  The shared host this was written on runs the same code at
# two speeds about 1.5x apart, in phases of minutes, so whole runs land in
# one phase or the other.  A fixed piece of pure-Python work, timed every
# REFERENCE_EVERY_S between operations, measures the phase; latencies and
# set-up time are scaled by REFERENCE_S / its median time over the run,
# which states them at one fixed host speed.
REFERENCE_S = 0.025  # the reference work's time in the host's fast phase
REFERENCE_EVERY_S = 0.5


def reference_seconds() -> float:
    """Time one fixed mix of integer, big-integer, dict, sort and string work."""
    t0 = perf_counter()
    table = {}
    total = 0
    for i in range(80000):
        total += i * i % 7
        table[i & 1023] = total
    order = sorted(range(30000), key=lambda x: x * 7919 % 10007)
    ",".join(str(x) for x in order)
    big = 3 ** 2000
    for _ in range(300):
        big = big * big % (10 ** 600 + 7)
    return perf_counter() - t0


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str) -> float:
    """Median wall time from spawn to ready over several fresh interpreters."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), workload],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            rc = proc.wait(timeout=60)
        if line != b"ready\n" or rc != 0:
            raise RuntimeError(f"set-up probe failed with exit {rc}")
        times.append(t1 - t0)
    return statistics.median(times)


def measure_peak_rss(workload: str, seed: int) -> float:
    """ru_maxrss of the probe interpreter, in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(SRC), str(BENCH), workload, str(seed)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return int(proc.stdout) / 1024.0


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload and keeps what they measured.

    Pass p runs the operations `workloads.build` draws for the seed and p.
    Slot i of every pass holds an input of the same kind and size, and its
    latency is the median over the passes of the run, kept separately for
    untraced and traced passes.  The median of a slot is robust to the
    luck of the draw and to brief stalls; the reference work timed
    between operations takes out the host's slow phases.
    """

    def __init__(self, wl, workload, seed):
        self.wl = wl  # the workloads module
        self.workload = workload
        self.seed = seed
        self.latencies = {}  # traced? -> per slot, its latency in each pass
        self.references = []  # reference_seconds(), every REFERENCE_EVERY_S
        self._next_reference = 0.0
        self.passes = {False: 0, True: 0}  # traced? -> passes run
        self.pass_digests = []  # sha256 of each pass's fingerprints, in order
        self.seen = {}  # input key -> fingerprint of its first result
        self.failures = {}  # label -> (wrong answer?, reason), first of each
        self.attempted = 0
        self.failed = 0
        self.repeat_mismatches = 0
        self.stdout_bytes = 0  # of the latest pass

    def _call(self, op, tracer=None):
        if tracer is not None:
            tracer.begin_op(self.attempted)
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an error escaping the library counts as failed
            result = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        return result, t1 - t0

    def _check(self, op, result):
        """None if the result is right, else (wrong answer?, reason)."""
        if isinstance(result, Exception):
            return (False, f"uncaught {type(result).__name__}: {result}")
        try:
            op.check(result)
        except self.wl.BadExit as exc:
            return (False, str(exc))
        except Exception as exc:  # any other check failure is a wrong answer
            return (True, f"{type(exc).__name__}: {exc}")
        return None

    def run_pass(self, tracer=None) -> None:
        """Draw the next pass's inputs, then run, check and fingerprint each.

        A result must also repeat the fingerprint of any earlier result for
        the same input in this run."""
        ops = self.wl.build(self.workload, self.seed, len(self.pass_digests))
        latencies = self.latencies.setdefault(tracer is not None, [[] for _ in ops])
        digest = hashlib.sha256()
        self.stdout_bytes = 0
        for i, op in enumerate(ops):
            if perf_counter() >= self._next_reference:
                self.references.append(reference_seconds())
                self._next_reference = perf_counter() + REFERENCE_EVERY_S
            result, dt = self._call(op, tracer)
            latencies[i].append(dt)
            self.attempted += 1
            if isinstance(result, self.wl.CliResult):
                self.stdout_bytes += len(result.out.encode())
            if isinstance(result, Exception):
                fingerprint = f"{type(result).__name__}: {result}".encode()
            else:
                fingerprint = op.fingerprint(result)
            digest.update(fingerprint)
            verdict = self._check(op, result)
            if self.seen.setdefault(op.key, fingerprint) != fingerprint:
                self.repeat_mismatches += 1
                verdict = verdict or (False, "differs from an earlier result for this input")
            if verdict is not None:
                self.failed += 1
                self.failures.setdefault(op.label, verdict)
        self.pass_digests.append(digest.hexdigest())
        self.passes[tracer is not None] += 1

    def scale(self) -> float:
        """Factor that takes a time of this run to the host speed of REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.references)

    def slot_latencies(self, traced=False, scaled=True) -> list:
        """Each slot's median latency over the passes, in seconds; scaled
        to the host speed of REFERENCE_S, or as measured."""
        scale = self.scale() if scaled else 1.0
        return [statistics.median(ts) * scale for ts in self.latencies[traced]]

    def ops_per_s(self, traced=False, scaled=True) -> float:
        """Operations per busy second, each slot at its median."""
        slots = self.slot_latencies(traced, scaled)
        return len(slots) / sum(slots)


def repeat_check(key: str, digests: list, counters: dict) -> list:
    """Compare with what earlier runs of the same seed and code recorded.

    Returns the indices of the passes whose digest or traced counters
    differ, and stores what this run adds.
    """
    path = OUT / "repeat.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    old = store.get(key, {"digests": [], "counters": {}})
    differing = [p for p, (a, b) in enumerate(zip(old["digests"], digests)) if a != b]
    differing += [int(p) for p, c in counters.items() if old["counters"].get(p, c) != c]
    store[key] = {
        "digests": max(old["digests"], digests, key=len) if not differing else old["digests"],
        "counters": {**counters, **old["counters"]},
    }
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return sorted(set(differing))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Per-layer metrics.  Times are mean self milliseconds per operation over
# the traced passes, at the reference host speed.  Counts are those of the first traced pass, whose
# inputs depend on the seed alone, so they repeat exactly for a seed.
FUNCTION_MS = (
    "cli.build_parser", "cli.run", "cli.canonical_json",
    "brieskorn.milnor_lattice", "brieskorn.spectrum", "brieskorn.milnor_number_and_basis",
    "abelian.kunneth", "abelian.divisibility_chain", "abelian.cokernel_group",
    "snf.smith_normal_form", "snf.matmul", "snf.determinant",
)
MODULE_MS = ("bundles", "tduality", "groups", "hodge")
CALLS = ("cli.run", "abelian.divisibility_chain", "snf.smith_normal_form")
PASS_COUNT_UNITS = {
    "cli.run.calls": "count",
    "abelian.divisibility_chain.calls": "count",
    "snf.smith_normal_form.calls": "count",
    "cli.stdout_bytes": "bytes",
    "brieskorn.gram_entries": "count",
    "snf.input_entries": "count",
    "snf.max_output_bits": "bits",
}


def pass_counts(tracer, runner) -> dict:
    calls = tracer.calls_by_label()
    counts = {f"{label}.calls": calls.get(label, 0) for label in CALLS}
    counts["cli.stdout_bytes"] = runner.stdout_bytes
    counts.update(tracer.counts)
    return counts


def per_layer(tracer, runner, counts) -> dict:
    ops = runner.passes[True] * len(runner.latencies[True])
    scale = runner.scale()
    self_ms = {k: v / ops * scale for k, v in tracer.self_ms_by_label().items()}

    def module_ms(module):
        return sum(v for k, v in self_ms.items() if k.startswith(module + "."))

    metrics = {f"{label}.self_ms": (self_ms.get(label, 0.0), "ms") for label in FUNCTION_MS}
    metrics["cli.commands.self_ms"] = (
        module_ms("cli") - sum(self_ms.get(k, 0.0) for k in FUNCTION_MS if k.startswith("cli.")),
        "ms",
    )
    for module in MODULE_MS:
        metrics[f"{module}.self_ms"] = (module_ms(module), "ms")
    for name, unit in PASS_COUNT_UNITS.items():
        metrics[name] = (counts[name], unit)
    overhead = 1.0 - runner.ops_per_s(traced=True) / runner.ops_per_s()
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exotic_invariants" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exotic_invariants

    if Path(exotic_invariants.__file__).resolve().parent != SRC / "exotic_invariants":
        print(f"error: imported {exotic_invariants.__file__}, not the checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if not args.trace:
        setup_s = measure_setup(args.workload)
        peak_rss_mb = measure_peak_rss(args.workload, args.seed)
    runner = Runner(workloads, args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    counts = {}  # pass index -> counters of that traced pass
    gc.collect()

    # Passes run whole, so every pass has the same mix of inputs.  An
    # untraced run starts no pass once time is up.  A traced run alternates
    # untraced and traced passes, so that both see the same phases of the
    # host, and ends on a traced pass.
    start = perf_counter()
    if tracer is None:
        while True:
            runner.run_pass()
            if perf_counter() - start >= args.seconds:
                break
    else:
        traced_next = False
        while traced_next or perf_counter() - start < args.seconds:
            if traced_next:
                tracer.reset_counts()
                tracer.install()
                try:
                    runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                counts[str(len(runner.pass_digests) - 1)] = pass_counts(tracer, runner)
            else:
                runner.run_pass()
            traced_next = not traced_next

    for n, (label, (wrong, reason)) in enumerate(runner.failures.items()):
        if n == 20:
            print(f"... {len(runner.failures) - n} more failing inputs", file=sys.stderr)
            break
        print(f"{'wrong answer' if wrong else 'failed'}: {label}: {reason}", file=sys.stderr)
    differing = repeat_check(
        f"{args.workload}:{args.seed}:{code_digest()}", runner.pass_digests, counts
    )
    repeat_ok = runner.repeat_mismatches == 0 and not differing
    if not repeat_ok:
        print(
            f"exact-repeat check failed: {runner.repeat_mismatches} results differ from an "
            f"earlier result for the same input; passes differing from an earlier run: "
            f"{differing}",
            file=sys.stderr,
        )
    correct = repeat_ok and not any(wrong for wrong, _ in runner.failures.values())

    if tracer is not None:
        first = min(counts, key=int)
        metrics = per_layer(tracer, runner, counts[first])
        tracer.write(OUT / f"trace-{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed})
    else:
        slots = runner.slot_latencies()
        values = {
            "ops_per_s": runner.ops_per_s(),
            "latency_p50_ms": statistics.median(slots) * 1000.0,
            "latency_p90_ms": percentile(slots, 90) * 1000.0,
            "success_frac": 1.0 - runner.failed / runner.attempted,
            "setup_s": setup_s * runner.scale(),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    measured = runner.slot_latencies(scaled=False)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "slots": len(measured),
        "passes": runner.passes[False],
        "traced_passes": runner.passes[True],
        "pass_digests": [d[:16] for d in runner.pass_digests],
        "reference_ms": [round(r * 1000.0, 2) for r in runner.references],
        "measured": {
            "ops_per_s": runner.ops_per_s(scaled=False),
            "latency_p50_ms": statistics.median(measured) * 1000.0,
            "latency_p90_ms": percentile(measured, 90) * 1000.0,
            "setup_s": None if args.trace else setup_s,
        },
        "counters": counts.get(min(counts, key=int)) if counts else None,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
