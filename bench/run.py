"""swdesign benchmark: rounds of cold CLI processes with checked outputs.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  A round runs the workload's CLI commands one after another,
each as a fresh ``swdesign`` process with the library defaults, so import
time is part of every command.  Rounds repeat until ``--seconds`` is used
up (at least two, so determinism can be checked).  Every run directory is
checked against an independent oracle, against the first round's bytes
and, for the default seed, against values frozen in ``frozen.json``.

``--trace 0`` reports the end-to-end metrics: the median round wall time,
candidates per second (configured candidates over that median), the median
cold ``import swdesign.cli`` time, timed once before each round (set-up),
and the median over rounds of the largest child RSS.  The share of failed
CLI invocations is printed as ``ops_failed_frac`` and carried by ``failed``
and ``attempted`` in the JSON line.

``--trace 1`` alternates plain rounds with traced ones (see
``trace_runner.py``) and reports per-layer times and counts, the tracing
overhead and how much of each command's wall time the spans account for.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` counts CLI invocations.

``--freeze`` (default seed only) records the first round's outcome in
``frozen.json``; use it only when an issue changes the expected results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import oracle
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FROZEN = BENCH / "frozen.json"
DEFAULT_SEED = 0
#: Limits on one CLI process and on a whole run, which must end in 180 s.
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
#: Relative agreement required between a traced command's wall time and
#: the sum of its spans' self times.
COVERAGE_TOLERANCE = 0.05
#: Run-directory files that must be byte-identical across rounds.
RESULT_FILES = ("result.json", "design.csv", "grid.csv", "ratio.csv",
                "table.csv")
#: Same launch as the ``swdesign`` console script.
LAUNCH = "import sys; from swdesign.cli import main; sys.exit(main())"


@dataclass
class Child:
    start: float
    end: float
    code: int
    rss_mb: float
    cpu_s: float

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Round:
    traced: bool
    wall: float
    children: list[Child]
    traces: list[dict] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SWDESIGN_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, cwd: Path, stderr_path: Path, deadline: float) -> Child:
    """Run one process to completion; its rusage comes from ``wait4``."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, proc.returncode, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime)


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of ``swdesign.cli`` and ``scipy.stats`` imports."""
    out = {"cli": 0.0, "scipy_stats": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "swdesign.cli":
            out["cli"] += int(parts[1]) / 1e6
        elif name == "scipy.stats":
            out["scipy_stats"] += int(parts[1]) / 1e6
    return out


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, freeze: bool):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.freeze = freeze
        self.t0 = time.monotonic()
        self.deadline = self.t0 + RUN_LIMIT_S
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        rng = random.Random(f"{workload}:{seed}")
        self.wl = WORKLOADS[workload](rng, inputs)
        self.frozen = self._load_frozen()
        self.digests: dict[str, tuple] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.outcomes: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _load_frozen(self):
        if self.seed != DEFAULT_SEED or not FROZEN.exists():
            return None
        return json.loads(FROZEN.read_text()).get(self.name)

    # -- running -------------------------------------------------------

    def run_round(self, index: int, traced: bool) -> Round:
        rdir = self.work / f"round-{index}"
        rdir.mkdir()
        children, argvs = [], []
        for cmd in self.wl.commands:
            args = [cmd.name] + cmd.args + ["--out", str(rdir / cmd.name)]
            if traced:
                spans = rdir / f"{cmd.name}.spans.json"
                argvs.append([sys.executable, "-X", "importtime",
                              str(BENCH / "trace_runner.py"), str(spans),
                              str(index), "--"] + args)
            else:
                argvs.append([sys.executable, "-c", LAUNCH] + args)
        start = time.perf_counter()
        for cmd, argv in zip(self.wl.commands, argvs):
            children.append(spawn(argv, self.work, rdir / f"{cmd.name}.err",
                                  self.deadline))
        wall = time.perf_counter() - start
        rnd = Round(traced, wall, children)
        for cmd, child in zip(self.wl.commands, children):
            self.attempted += 1
            errs = self.check(cmd, child, rdir)
            if traced and not errs:
                errs = self.read_trace(rnd, cmd, child, rdir)
            if errs:
                self.failed += 1
                self.errors += [f"round {index} {cmd.name}: {e}" for e in errs]
        shutil.rmtree(rdir)
        return rnd

    def check(self, cmd, child: Child, rdir: Path) -> list[str]:
        if child.code != 0:
            err = (rdir / f"{cmd.name}.err").read_text(errors="replace")
            tail = [ln for ln in err.splitlines()
                    if not ln.startswith("import time:")][-3:]
            return [f"exit code {child.code}: {' | '.join(tail)}"]
        out = rdir / cmd.name
        digest = tuple(
            (name, hashlib.sha256((out / name).read_bytes()).hexdigest())
            for name in RESULT_FILES if (out / name).exists())
        if self.digests.setdefault(cmd.name, digest) != digest:
            return ["run directory differs from the first round's"]
        if cmd.name not in self.verdicts:
            try:
                errs = cmd.check(out)
                outcome = oracle.outcome(cmd.name, out)
            except (OSError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                errs, outcome = [f"unreadable output: {exc!r}"], None
            self.outcomes[cmd.name] = outcome
            if self.frozen is not None and outcome is not None:
                want = self.frozen.get(cmd.name)
                errs += (["no frozen outcome"] if want is None else
                         [f"frozen{e}" for e in oracle.diff_frozen(outcome, want)])
            elif self.seed == DEFAULT_SEED and not self.freeze:
                errs.append("no frozen outcomes for this workload")
            self.verdicts[cmd.name] = errs
        return self.verdicts[cmd.name]

    def read_trace(self, rnd: Round, cmd, child: Child, rdir: Path):
        data = json.loads((rdir / f"{cmd.name}.spans.json").read_text())
        stderr = (rdir / f"{cmd.name}.err").read_text(errors="replace")
        data["imports"] = parse_importtime(stderr)
        rnd.traces.append(data)
        # perf_counter is the system-wide monotonic clock, so the child's
        # timestamps place interpreter start-up and shutdown in this process.
        spans = data["spans"]
        root_start, root_end = spans[0][1], spans[0][2]
        spans += [["proc.startup", child.start, root_start, -1],
                  ["proc.teardown", root_end, child.end, -1]]
        data["coverage"] = sum(span_table(spans)["self_total"].values()) \
            / child.wall
        if abs(data["coverage"] - 1.0) > COVERAGE_TOLERANCE:
            return [f"span self times add up to {data['coverage']:.3f} of "
                    "the wall time"]
        return []

    def import_time(self) -> float:
        """Wall time of one cold ``import swdesign.cli`` process."""
        child = spawn([sys.executable, "-c", "import swdesign.cli"],
                      self.work, self.work / "setup.err", self.deadline)
        if child.code != 0:
            raise SystemExit("swdesign.cli does not import: "
                             + (self.work / "setup.err").read_text())
        return child.wall

    def measure(self, traced, setup: bool):
        """Rounds until ``--seconds`` (counted from start-up) is used up.

        At least two rounds run.  With ``setup``, a cold import is timed
        before each round, after one untimed warm-up import that also
        compiles the bytecode, so set-up samples span the same stretch of
        time as the rounds.
        """
        rounds, setup_times = [], []
        if setup:
            self.import_time()
        start = time.monotonic()
        while True:
            if setup:
                setup_times.append(self.import_time())
            rounds.append(self.run_round(len(rounds), traced(len(rounds))))
            now = time.monotonic()
            per_round = (now - start) / len(rounds)
            if len(rounds) >= 2 and now + per_round / 2 > self.t0 + self.seconds:
                return rounds, setup_times


def span_table(spans) -> dict:
    """Per span name: calls, total time of outermost spans, self time."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ancestors = [frozenset()] * n
    calls, total, self_total = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
        calls[name] = calls.get(name, 0) + 1
        if name not in ancestors[i]:
            total[name] = total.get(name, 0.0) + end - start
        self_total[name] = self_total.get(name, 0.0) + end - start - child_time[i]
    return {"calls": calls, "total": total, "self_total": self_total}


#: (metric, span name, statistic) for metrics read straight off the spans.
SPAN_METRICS = [
    ("search.scan_chunk.self_s", "search.scan_chunk", "self_total"),
    ("search.scan_chunk.calls", "search.scan_chunk", "calls"),
    ("search.combo_counts.time_s", "search.combo_counts", "total"),
    ("search.exhaustive_search.calls", "search.exhaustive_search", "calls"),
    ("search.exhaustive_search.time_s", "search.exhaustive_search", "total"),
    ("search.cross_entropy_search.time_s", "search.cross_entropy_search",
     "total"),
    ("designspace.enumerate_sequences.calls",
     "designspace.enumerate_sequences", "calls"),
    ("designspace.enumerate_sequences.time_s",
     "designspace.enumerate_sequences", "total"),
    ("model.sequence_contributions.calls", "model.sequence_contributions",
     "calls"),
    ("model.sequence_contributions.time_s", "model.sequence_contributions",
     "total"),
    ("model.treatment_covariance.calls", "model.treatment_covariance", "calls"),
    ("model.treatment_covariance.time_s", "model.treatment_covariance",
     "total"),
    ("inference.mvn_upper_orthant.calls", "inference.mvn_upper_orthant",
     "calls"),
    ("inference.mvn_upper_orthant.time_s", "inference.mvn_upper_orthant",
     "total"),
    ("inference.power_report.calls", "inference.power_report", "calls"),
    ("inference.power_report.time_s", "inference.power_report", "total"),
    ("cli.command_s", "cli.command", "total"),
    ("cli.io_s", "cli.io", "total"),
    ("proc.startup_s", "proc.startup", "total"),
    ("proc.teardown_s", "proc.teardown", "total"),
]
LAYERS = ("cli", "search", "model", "designspace", "inference")


def round_layer_metrics(rnd: Round) -> dict:
    """Per-layer metrics of one traced round, summed over its commands."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    hits = lookups = 0
    for data in rnd.traces:
        table = span_table(data["spans"])
        for metric, span, stat in SPAN_METRICS:
            add(metric, table[stat].get(span, 0))
        for layer in LAYERS:
            add(f"layer.{layer}.self_s", sum(
                v for k, v in table["self_total"].items()
                if k.startswith(layer + ".")))
        add("cli.import_s", data["imports"]["cli"])
        add("cli.import_scipy_stats_s", data["imports"]["scipy_stats"])
        add("search.candidates_evaluated",
            data["counts"]["candidates_evaluated"])
        add("search.candidates_feasible", data["counts"]["candidates_feasible"])
        if data["cache"] is not None:
            hits += data["cache"]["hits"]
            lookups += data["cache"]["hits"] + data["cache"]["misses"]
    m["model.contrib_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["proc.cpu_s"] = sum(c.cpu_s for c in rnd.children)
    m["trace.coverage"] = min(d["coverage"] for d in rnd.traces)
    return m


UNITS = {"calls": "count", "candidates_evaluated": "count",
         "candidates_feasible": "count", "hit_ratio": "ratio",
         "coverage": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")


def end_to_end(bench: Bench, rounds: list[Round], setup: list[float]) -> dict:
    wall = statistics.median(r.wall for r in rounds)
    return {
        "wall_s": (wall, "s"),
        "candidates_per_s": (bench.wl.candidates / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(
            max(c.rss_mb for c in r.children) for r in rounds), "MB"),
    }


def per_layer(rounds: list[Round]) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r.traced and len(r.traces) == len(r.children)]
    plain = [r for r in rounds if not r.traced]
    if not traced:
        return {}, []
    per_round = [round_layer_metrics(r) for r in traced]
    metrics = {k: (statistics.median(pr[k] for pr in per_round), unit_of(k))
               for k in per_round[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in plain), "s")
    missing = set().union(*(d["missing"] for r in traced for d in r.traces))
    absent = [k for k, span, _ in SPAN_METRICS if span in missing]
    absent += [f"layer.{s.split('.')[0]}.self_s" for s in missing]
    if any(d["cache"] is None for r in traced for d in r.traces):
        absent.append("model.contrib_cache.hit_ratio")
    absent = sorted(set(absent) & set(metrics))
    for k in absent:
        del metrics[k]
    return metrics, absent


def environment() -> dict:
    blas = None
    try:
        import ctypes
        import glob

        import numpy

        libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            blas = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError, ImportError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "blas_threads": blas,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args()
    if not (SRC / "swdesign" / "cli.py").is_file():
        print(f"swdesign sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.freeze and args.seed != DEFAULT_SEED:
        print("--freeze needs the default seed", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, args.freeze)
    try:
        print(f"# workload {args.workload}  seed {args.seed}  "
              f"seconds {args.seconds}  trace {args.trace}")
        print(f"# environment {json.dumps(environment(), sort_keys=True)}")
        print(f"# parameters {json.dumps(bench.wl.params, sort_keys=True)}")
        print(f"# calibrated ranges {json.dumps(bench.wl.ranges, sort_keys=True)}")
        if args.trace:
            rounds, _ = bench.measure(lambda i: i % 2 == 1, setup=False)
            metrics, absent = per_layer(rounds)
            if absent:
                print(f"# absent (wrap target missing): {', '.join(absent)}")
        else:
            rounds, setup = bench.measure(lambda i: False, setup=True)
            metrics = end_to_end(bench, rounds, setup)
            print("# set-up s: " + " ".join(f"{t:.3f}" for t in setup))
        if args.freeze and not bench.failed:
            frozen = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}
            frozen[args.workload] = bench.outcomes
            FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()
    for err in bench.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"# {len(rounds)} rounds, wall s: "
          + " ".join(f"{r.wall:.3f}" + "t" * r.traced for r in rounds))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    frac = bench.failed / bench.attempted
    print(f"{'ops_failed_frac':<40} {frac:>14.6g} ratio "
          f"({bench.failed} of {bench.attempted} CLI invocations)")
    correct = bench.failed == 0 and (args.trace == 0 or bool(metrics))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
