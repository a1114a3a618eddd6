"""Benchmark of the sievelogic CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload ks-certify --seed 1 --seconds 25 --trace 0

One client runs the workload's batch of reports in order, one subprocess
per report (``python3 -m sievelogic.cli <command> <file>``), closed loop,
until ``--seconds`` have passed; the first batch always completes. Every
report is checked against an answer derived without the engine, and
repeats must be byte-identical. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the batch once more as subprocesses for the
reference bytes and then in-process under the tracer, printing the
per-layer metrics. ``--workload smoke`` runs one tiny request per workload.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Inputs, the output
digest and the spans go to ``perfbench/out/<workload>-<seed>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from oracles import check_report

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Interpreter start plus ``import sievelogic.cli`` is sampled this many
# times before the first batch and after every batch; setup_s is the median.
SETUP_SAMPLES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "report_s.p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Client:
    """Runs reports as subprocesses and keeps every fact the checks need."""

    def __init__(self, requests, paths):
        self.requests = requests
        self.paths = paths
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, index: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{self.requests[index].name}: {problem}")

    def accept(self, index: int, code: int, out: bytes) -> None:
        """Count one report and check it: exit 0, the oracle's answer the
        first time, the same bytes every later time."""
        self.attempted += 1
        if code != 0:
            self.fail(index, f"exit code {code}")
        elif index not in self.reference:
            self.reference[index] = out
            problems = check_report(self.requests[index].expect, out.decode("utf-8"))
            if problems:
                self.fail(index, "; ".join(problems[:3]))
        elif out != self.reference[index]:
            self.fail(index, "bytes differ from the first run")

    def run(self, index: int):
        """One report process: (seconds from spawn to exit, CPU s, max RSS MB)."""
        req = self.requests[index]
        argv = [sys.executable, "-m", "sievelogic.cli", req.command, self.paths[index]]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.accept(index, proc.returncode, out)
        return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def digest(self, count: int) -> str:
        """SHA-256 of the first ``count`` reports' bytes, in batch order."""
        h = hashlib.sha256()
        for i in range(count):
            h.update(self.reference.get(i, b""))
        return h.hexdigest()


def check_checkout() -> None:
    """Fail unless the child interpreter imports the checkout's package.
    This first start also leaves the byte-code caches filled."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sievelogic.cli as c; print(c.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sievelogic imported from outside {SRC}: {probe.stdout.strip()}")


def setup_samples() -> list[float]:
    """Times of ``python3 -c 'import sievelogic.cli'``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sievelogic.cli"],
                       cwd=ROOT, env=child_env(), check=True)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(client: Client, seconds: float) -> dict:
    """Closed loop over whole batches until the deadline.

    Single reports vary by tens of percent on a shared machine, so the
    batch time is the sum over the batch's reports of each report's median
    time, and likewise for CPU time.
    """
    check_checkout()
    setup = setup_samples()
    deadline = time.perf_counter() + seconds
    n = len(client.requests)
    times, cpus, peak = [[] for _ in range(n)], [[] for _ in range(n)], 0.0
    batches = 0
    while batches == 0 or time.perf_counter() < deadline:
        for i in range(n):
            if batches and time.perf_counter() >= deadline:
                break
            elapsed, used, rss = client.run(i)
            times[i].append(elapsed)
            cpus[i].append(used)
            peak = max(peak, rss)
        else:
            batches += 1
        setup += setup_samples()
    print(f"batches: {batches}  reports timed: {sum(map(len, times))}  "
          f"setup samples: {len(setup)}")
    return {
        "wall_s": sum(statistics.median(t) for t in times),
        "report_s.p50": statistics.median(t for ts in times for t in ts),
        "cpu_s": sum(statistics.median(c) for c in cpus),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup),
    }


def traced(client: Client, seconds: float) -> tuple[dict, list]:
    """Per-layer metrics from in-process runs of the batch plus the smoke
    requests: one subprocess pass for the reference bytes, then traced and
    untraced passes in turn while they fit in ``seconds``.

    The smoke requests give every layer at least one span on every
    workload, so a layer the workload itself leaves idle reads a small
    constant instead of nothing.
    """
    deadline = time.perf_counter() + seconds
    check_checkout()
    for i in range(len(client.requests)):
        client.run(i)
    sys.path.insert(0, str(SRC))
    import sievelogic.cli as cli
    import sievelogic.heyting as heyting
    import sievelogic.scenario as scenario
    from sievelogic.quantum import verify_spectral_operator

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sievelogic imported from outside {SRC}: {cli.__file__}")
    modules = {"cli": cli, "heyting": heyting, "scenario": scenario}

    def call(index: int, tracer=None):
        req = client.requests[index]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main([req.command, client.paths[index]])
                elapsed = time.perf_counter() - start
            else:
                with tracer.span("cli.main") as span:
                    code = cli.main([req.command, client.paths[index]])
                elapsed = span.end - span.start
        out = buf.getvalue().encode("utf-8")
        client.attempted += 1
        if code != 0 or out != client.reference.get(index):
            client.fail(index, "in-process report differs from the subprocess bytes")
        return elapsed, len(out)

    layers, plain_totals, counts, tracers = [], [], None, []
    pass_seconds = 0.0
    # One pass always runs; later ones only if they end before the deadline.
    while not layers or time.perf_counter() + pass_seconds < deadline:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules):
            report_bytes = 0
            for i in range(len(client.requests)):
                tracer.report = i
                first = len(tracer.spans)
                report_bytes += call(i, tracer)[1]
                tracing.verify_probe(tracer, verify_spectral_operator, first)
                tracing.count_report(tracer, first)
        tracer.counts["cli.report_bytes"] = report_bytes
        for r in tracing.additivity_errors(tracer):
            client.fail(r, "stage self times do not add up to cli.main")
        if counts is None:
            counts = dict(tracer.counts)
        elif dict(tracer.counts) != counts:
            client.fail(0, "per-layer counters differ between traced passes")
        layers.append(tracing.layer_metrics(tracer))
        tracers.append(tracer)
        plain_totals.append(sum(call(i)[0] for i in range(len(client.requests))))
        pass_seconds = time.perf_counter() - pass_start
    metrics = {
        name: statistics.median(layer[name] for layer in layers) for name in tracing.TIMES
    }
    metrics.update({name: counts.get(name, 0) for name in tracing.COUNTS})
    metrics["trace.overhead_ratio"] = metrics["cli.main_s"] / statistics.median(plain_totals)
    print(f"traced passes: {len(layers)}")
    return metrics, tracers


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "cli.report_bytes":
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sievelogic" / "cli.py").is_file():
        print(f"no sievelogic sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    requests = workloads.generate(args.workload, args.seed)
    batch = len(requests)
    if args.trace:
        requests = requests + workloads.generate("smoke", args.seed)
    work = OUT / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for req in requests:
        (work / req.filename).write_text(req.text, encoding="utf-8")
        paths.append(str((work / req.filename).relative_to(ROOT)))
    client = Client(requests, paths)

    if args.trace:
        metrics, tracers = traced(client, args.seconds)
        spans = [{"pass": k, "spans": tracing.dump(t)} for k, t in enumerate(tracers)]
        (work / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = end_to_end(client, args.seconds)
    failed_ratio = client.failed / client.attempted
    digest = client.digest(batch)
    (work / "digest.txt").write_text(digest + "\n", encoding="utf-8")

    print(f"workload: {args.workload}  seed: {args.seed}  requests per batch: {batch}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {unit_of(name)}")
    print(f"failed_ratio: {failed_ratio:.6g} ({client.failed} of {client.attempted})")
    print(f"digest: {digest}")
    for problem in client.problems:
        print(f"problem: {problem}")
    correct = client.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
