"""End-to-end benchmark of the g2schur command line, with a traced layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {tables,residue,kernel} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --write-reference

A workload is a fixed list of g2schur commands at fixed sizes.  Each command
runs in its own fresh interpreter, as a user runs it, so no in-process cache
(such as ``cauchy._monomial_master``) carries over from one command to the
next.  Commands run one after another from this single parent process.  The
whole list is repeated until ``--seconds`` have passed.  ``--seed`` only
shuffles the order of the commands that do not depend on one another; every
input size is fixed.

Times are scaled to a fixed machine speed.  On a shared host the speed of
the same code drifts by up to a factor of two within seconds, so between
commands this process times ``probe()``, a fixed pure-Python ``Fraction``
loop that shares no code with g2schur.  Each command's wall and CPU time is
multiplied by ``PROBE_REF_S`` over the mean probe time on either side of it,
giving seconds on a machine that runs the probe in ``PROBE_REF_S``.  A
command's time is the median over the repetitions and ``job_s`` is the sum
over the list.  The unscaled times are printed in the stamp line.

Every command is checked: it fails if its exit code is not 0, if its report
holds a failed check, or if the digest of its payload differs from the
reference in ``reference.json``.  Each run also checks the checker itself on
tampered copies of a real report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced measurement and then runs the command list once more under
``traced.py``, printing the per-layer metrics and ``trace.overhead_s``, the
scaled traced time of the list minus ``job_s``.  Layer times come from the
traced run and are not scaled.  Metric names and units are those declared
in ``BENCHMARK.json`` at the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the run with the Python version, the CPU count, the source revision
and the unscaled samples.  Exit code 2 (and no result) means the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from traced import COUNTERS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: hard limit for one benchmark invocation; children still running are killed
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 9
#: end-to-end times are scaled to a machine that runs ``probe()`` in this
#: many seconds; see ``probe`` and the module docstring
PROBE_REF_S = 0.1
#: share of the measured command time spent on speed probes
PROBE_SHARE = 0.05

TABLE = "table.json"

#: label -> (g2schur arguments, report file; None means standard output)
COMMANDS: dict[str, tuple[list[str], str | None]] = {
    "table": (["table", "--max-level", "20", "--out", TABLE], None),
    "roundtrip": (["roundtrip", "--table", TABLE], None),
    "verify-pieri": (["verify", "pieri", "--max-level", "20", "--table", TABLE], None),
    "verify-eigen": (["verify", "eigen", "--max-level", "14", "--table", TABLE], None),
    "verify-specialized": (
        ["verify", "specialized", "--max-level", "20", "--table", TABLE], None),
    "verify-series": (
        ["verify", "series", "--max-level", "20", "--order", "4", "--table", TABLE],
        None),
    "verify-cauchy": (
        ["verify", "cauchy", "--max-level", "12", "--order", "4",
         "--lambda-order", "4"], None),
    "conjecture-1": (
        ["conjecture", "--copies", "1", "--order", "4", "--max-level", "12"], None),
    "conjecture-2": (
        ["conjecture", "--copies", "2", "--order", "4", "--max-level", "12"], None),
    "omega": (["omega", "--order", "6", "--out", "omega.json"], "omega.json"),
    "verify-kernel": (["verify", "kernel", "--order", "12"], None),
}

#: workload -> (commands run first, in this order; commands that only read
#: what those wrote, in an order shuffled by the seed)
WORKLOADS: dict[str, tuple[list[str], list[str]]] = {
    "tables": (["table"], ["roundtrip", "verify-pieri", "verify-eigen",
                           "verify-specialized", "verify-series"]),
    "residue": ([], ["verify-cauchy", "conjecture-1", "conjecture-2", "omega"]),
    "kernel": ([], ["verify-kernel"]),
}

#: report keys that make up the checked payload; timing, the top-level
#: summary and any later timing or counters block are left out
PAYLOAD_KEYS = ("table_checksum", "checks", "conjecture", "omega_minus", "omega_plus")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    text: str
    speed: float = 1.0   # PROBE_REF_S over the probe time around this command


# -- correctness --------------------------------------------------------------

def payload_digest(report: dict) -> str:
    payload = {k: report[k] for k in PAYLOAD_KEYS if k in report}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def read_report(exit_code: int, text: str) -> tuple[dict | None, str | None]:
    """(report, None) for a passing command, else (None, why it failed)."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        report = json.loads(text)
    except ValueError:
        return None, "report is not JSON"
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return None, "report has no check list"
    if any(c.get("status") == "fail" for c in report["checks"]):
        return None, "report holds a failed check"
    return report, None


def judge(label: str, exit_code: int, text: str, reference: dict) -> str | None:
    """Why the command failed, or None when it passed."""
    report, why = read_report(exit_code, text)
    if why is None and payload_digest(report) != reference.get(label):
        why = "payload digest differs from the reference"
    return why


def self_test(outcomes: list[Outcome], reference: dict) -> str | None:
    """Check that ``judge`` passes a real report and fails tampered copies."""
    base = next((o for o in outcomes if judge(o.label, o.exit_code, o.text, reference)
                 is None and json.loads(o.text)["checks"]), None)
    if base is None:
        return "no passing report with checks to tamper with"
    report = json.loads(base.text)
    flipped = json.loads(base.text)
    flipped["checks"][0]["status"] = "fail"
    padded = json.loads(base.text)
    padded["checks"].append({"check": "tampered", "status": "pass"})
    cases = [
        ("untouched", 0, json.dumps(report), False),
        ("status flipped", 0, json.dumps(flipped), True),
        ("payload changed", 0, json.dumps(padded), True),
        ("exit code 1", 1, json.dumps(report), True),
        ("truncated", 0, base.text[: len(base.text) // 2], True),
    ]
    for name, code, text, should_fail in cases:
        if (judge(base.label, code, text, reference) is not None) != should_fail:
            return f"self-test '{name}' on {base.label} was misjudged"
    return None


# -- machine speed ------------------------------------------------------------

def probe() -> float:
    """Wall seconds of a fixed pure-Python ``Fraction`` workload.

    It shares no code with g2schur, so only the machine's speed moves it.
    """
    a = {i: Fraction(i + 1, 2 * i + 3) for i in range(40)}
    start = perf_counter()
    for _ in range(12):
        out: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in a.items():
                e = (e1 + e2) % 61
                out[e] = out.get(e, 0) + c1 * c2
    return perf_counter() - start


def sample_speed(budget_s: float) -> list[float]:
    """Probe times covering PROBE_SHARE of ``budget_s``, at least one."""
    probes = [probe()]
    while sum(probes) < PROBE_SHARE * budget_s:
        probes.append(probe())
    return probes


# -- running children ---------------------------------------------------------

class Runner:
    """Runs child interpreters in a work directory, each to completion."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("G2SCHUR_CACHE_DIR", None)  # the on-disk expansion cache

    def run(self, argv: list[str]) -> tuple[float, float, int, int, str]:
        """(wall s, user+sys CPU s, max RSS KB, exit code, stdout) of one child.

        Its standard error is left in ``stderr.txt`` until the next child."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError(f"time limit of {RUN_LIMIT_S} s reached")
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if perf_counter() >= self.deadline:
            raise BenchError(f"{argv[1:]} was stopped at the time limit")
        text = out_path.read_text(encoding="utf-8", errors="replace")
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, text

    def command(self, label: str, trace_path: Path | None = None) -> Outcome:
        args, report_file = COMMANDS[label]
        if trace_path is None:
            argv = [sys.executable, "-m", "g2schur", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_path), *args]
        if report_file:
            (self.workdir / report_file).unlink(missing_ok=True)
        wall, cpu, rss, code, text = self.run(argv)
        if trace_path is not None and not trace_path.exists():
            lines = (self.workdir / "stderr.txt").read_text(errors="replace").splitlines()
            raise BenchError(f"traced run of {label} wrote no trace (exit code {code}): "
                             + (lines[-1] if lines else "no error output"))
        if report_file:
            path = self.workdir / report_file
            text = path.read_text(encoding="utf-8") if path.exists() else ""
        return Outcome(label, wall, cpu, rss, code, text)

    def job(self, order: list[str], trace_dir: Path | None = None) -> list[Outcome]:
        """One pass over the command list.

        Speed probes run before each command and after the last; each
        outcome's ``speed`` comes from the probes on either side of it."""
        outcomes: list[Outcome] = []
        groups = [sample_speed(0.0)]
        for label in order:
            trace_path = trace_dir / f"{label}.json" if trace_dir else None
            outcomes.append(self.command(label, trace_path))
            groups.append(sample_speed(outcomes[-1].wall_s))
        for o, before, after in zip(outcomes, groups, groups[1:]):
            o.speed = PROBE_REF_S / statistics.mean(before + after)
        return outcomes

    def setup_s(self) -> tuple[float, float]:
        """(median wall s of a fresh interpreter importing ``g2schur.cli``,
        mean of the speed probes taken between those samples)."""
        check = "import g2schur.cli, sys; print(g2schur.cli.__file__)"
        _, _, _, code, text = self.run([sys.executable, "-c", check])
        if code != 0 or not text.strip().startswith(str(ROOT / "src")):
            raise BenchError(f"g2schur does not import from {ROOT / 'src'}")
        samples, probes = [], []
        for _ in range(SETUP_SAMPLES):
            probes.append(probe())
            samples.append(self.run([sys.executable, "-c", "import g2schur.cli"])[0])
        return statistics.median(samples), statistics.mean(probes)


# -- traced run ---------------------------------------------------------------

def layer_values(traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced command list, keyed by metric name."""
    values: dict[str, float] = {}
    for _, name, kind, _ in TARGETS:
        for key in (("calls", "self_s") if kind == "span" else ("calls", "time_s")):
            values[f"{name}.{key}"] = 0.0 if key.endswith("_s") else 0
    values.update(dict.fromkeys(COUNTERS, 0))
    for label in COMMANDS:
        values[f"table.canonical_json.calls.{label}"] = 0
    for label, trace in traces.items():
        spans = trace["spans"]
        self_s = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        for (name, _, _, _), own in zip(spans, self_s):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own
            if name == "table.canonical_json":
                values[f"table.canonical_json.calls.{label}"] += 1
        for name, agg in trace["kernels"].items():
            values[f"{name}.calls"] += agg["calls"]
            values[f"{name}.time_s"] += agg["time_s"]
        for name, v in trace["counters"].items():
            peak = name.rsplit(".", 1)[1].startswith("peak_")
            values[name] = max(values[name], v) if peak else values[name] + v
    values["linalg.rref.nonzero_share"] = _share(values["linalg.rref.nonzero"],
                                                 values["linalg.rref.cells"])
    values["linalg.try_add.accept_ratio"] = _share(values["linalg.try_add.accepted"],
                                                   values["linalg.try_add.calls"])
    return values


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the run ------------------------------------------------------------------

def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read metric declarations from {path}: {exc}") from exc


def emit(declared: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"declared metrics the run cannot produce: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "g2schur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "source_sha256": digest.hexdigest()}


def command_order(workload: str, seed: int) -> list[str]:
    first, independent = WORKLOADS[workload]
    rest = list(independent)
    random.Random(seed).shuffle(rest)
    return first + rest


def per_command(reps: list[list[Outcome]], value) -> dict[str, float]:
    """Median of ``value(outcome)`` over the repetitions, per command label."""
    samples: dict[str, list[float]] = {}
    for rep in reps:
        for o in rep:
            samples.setdefault(o.label, []).append(value(o))
    return {label: statistics.median(v) for label, v in samples.items()}


def benchmark(args, runner: Runner, workdir: Path) -> tuple[dict, dict]:
    declared = declared_metrics()
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}") from exc
    order = command_order(args.workload, args.seed)
    setup_raw_s, setup_probe_s = runner.setup_s()

    reps: list[list[Outcome]] = []
    start = perf_counter()
    while not reps or perf_counter() - start < args.seconds:
        reps.append(runner.job(order))
    failures: dict[str, str] = {}

    def count_failed(outcomes: list[Outcome], suffix: str = "") -> int:
        failed = 0
        for o in outcomes:
            why = judge(o.label, o.exit_code, o.text, reference)
            if why:
                failures.setdefault(o.label + suffix, why)
                failed += 1
        return failed

    attempted = sum(map(len, reps))
    failed = sum(map(count_failed, reps))
    self_test_error = self_test(reps[0], reference)
    cmd_s = per_command(reps, lambda o: o.wall_s * o.speed)
    job_s = sum(cmd_s.values())

    if args.trace:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = runner.job(order, trace_dir)
        attempted += len(traced)
        failed += count_failed(traced, " (traced)")
        values = layer_values({o.label: json.loads((trace_dir / f"{o.label}.json").read_text())
                               for o in traced})
        for label in COMMANDS:
            values[f"cli.cmd_s.{label}"] = cmd_s.get(label, 0.0)
        values["trace.overhead_s"] = sum(o.wall_s * o.speed for o in traced) - job_s
        metrics = emit(declared["per_layer"], values)
    else:
        values = {
            "job_s": job_s,
            "job_cpu_s": sum(per_command(reps, lambda o: o.cpu_s * o.speed).values()),
            "peak_rss_mb": statistics.median(max(o.rss_kb for o in rep) / 1024
                                             for rep in reps),
            "setup_s": setup_raw_s * PROBE_REF_S / setup_probe_s,
            "pass_share": (attempted - failed) / attempted,
        }
        metrics = emit(declared["end_to_end"], values)

    stamp = dict(source_stamp(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, order=order,
                 raw_job_s=[sum(o.wall_s for o in rep) for rep in reps],
                 raw_setup_s=setup_raw_s,
                 samples={label: [[o.wall_s, o.speed] for rep in reps for o in rep
                                  if o.label == label] for label in order},
                 failures=failures, self_test=self_test_error or "ok")
    result = {"correct": failed == 0 and self_test_error is None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return stamp, result


def write_reference(runner: Runner) -> None:
    digests = {}
    for workload in WORKLOADS:
        outcomes = runner.job(command_order(workload, 0))
        for o in outcomes:
            report, why = read_report(o.exit_code, o.text)
            if why:
                raise BenchError(f"{o.label} did not pass ({why}); reference not written")
            digests[o.label] = payload_digest(report)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(digests)} digests to {REFERENCE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run every command once and store its payload digest")
    args = parser.parse_args(argv)
    if not args.write_reference and not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "g2schur" / "cli.py").is_file():
        print(f"error: no g2schur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workdir, perf_counter() + RUN_LIMIT_S)
    try:
        if args.write_reference:
            write_reference(runner)
            return 0
        stamp, result = benchmark(args, runner, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
