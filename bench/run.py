"""Layered benchmark for semifuzz: one workload per run, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Each pass of the workload's fixed job list runs as a closed loop after
a fresh set-up (import, instances, input files, seeded inputs, cache
warming); set-up and pass alternate until the next pair would end past
``--seconds`` (at least one of each).  Every timed stretch is divided by
a calibration run next to it, and each job, call and set-up is summarized
by its median over the passes (see README.md).  Every output is checked
between passes, outside the timed sections.  With ``--trace 1`` the
untraced passes are followed by a traced set-up and one traced pass,
whose spans give the per-layer metrics; untraced runs install no wrappers.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
come from BENCHMARK.json.  A full report with run metadata goes to
``bench/out/``.  Exit code 2, with no result line, when the library
source is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
JOB_LIMIT_S = 60.0  # a job running longer is stopped and counted as failed
RUN_LIMIT_S = 150.0  # past this, jobs are skipped and counted as failed
SEGMENT_S = 0.25  # a call-stream job is recalibrated after each stretch this long
MODULES = ("semigroups", "fuzzy", "decomposition", "enumeration", "verification", "cli")


def _calibration_inputs():
    """24 tuples of 400 distinct chain-16 Fractions, about half a megabyte."""
    rng = random.Random(0)
    return [tuple(Fraction(rng.randrange(17), 16) for _ in range(400)) for _ in range(24)]


CALIBRATION_INPUTS = _calibration_inputs()
# Timings are reported at the host speed where calibration(), run between
# jobs, takes this long; see README.
CALIBRATION_REFERENCE_S = 0.025


def calibration() -> float:
    """Seconds for a fixed piece of work that does not use semifuzz.

    Exact-rational max-of-min over neighbouring tuples, then a set build:
    the kinds of work the library's kernels and table layer do, over a
    working set large enough to feel the cache pressure other tenants cause.
    """
    start = time.perf_counter()
    best = Fraction(0)
    prev = CALIBRATION_INPUTS[-1]
    for row in CALIBRATION_INPUTS:
        for x, y in zip(row, prev):
            m = x if x <= y else y
            if m > best:
                best = m
        prev = row
    {i * 7919 % 100003 for i in range(20000)}
    return time.perf_counter() - start


class JobStopped(BaseException):
    """Ends the current job: it ran past JOB_LIMIT_S, or the run is past RUN_LIMIT_S.

    A BaseException, like KeyboardInterrupt, so that no ``except Exception``
    in the library or the recorder swallows it.
    """


def _on_alarm(signum, frame):
    raise JobStopped(f"timeout after {JOB_LIMIT_S:.0f} s")


@dataclass
class PassStats:
    """One pass.  A ratio is a time divided by its job's calibration."""

    wall_s: float = 0.0
    cases: int = 0
    job_s: dict[str, float] = field(default_factory=dict)
    job_ratio: dict[str, float] = field(default_factory=dict)
    call_ns: array = field(default_factory=lambda: array("q"))
    call_ratio: array = field(default_factory=lambda: array("d"))
    verify_jobs: list[str] = field(default_factory=list)


class Recorder:
    """Runs and times a workload's operations; keeps their checks for later.

    Operations run inside jobs (``with rec.job(label):``); verify and CLI
    calls are jobs of their own.  A job's time is divided by the mean of
    calibration() just before and just after it; a call-stream job is cut
    into segments of about SEGMENT_S, each calibrated that way, since host
    speed can change within a second.  Calibration time is not part of
    any job's time.  The time limit is armed
    once per job, not per call, because a system call next to a
    microsecond-scale kernel call slows it measurably.  Every operation
    counts as attempted.  A failure is an exception, a failed check, or a
    job stopped by its time limit or the run deadline.
    """

    def __init__(self, seed: int, check_share: float, deadline: float):
        self.sf = None  # the library of the current pass, set by measure()
        self.check_share = check_share
        self.pick = random.Random(seed ^ 0x5EED)  # which call-stream outputs get checked
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.pending: list[tuple[str, object]] = []
        self.tracer: tracing.Tracer | None = None
        self.stats = PassStats()
        self.calibrations: list[float] = []
        self._segment_start = 0.0
        self._segment_calls: list[int] = []
        self._job = [0.0, 0.0]  # seconds and ratio of the current job so far

    def calibrate(self) -> float:
        self.calibrations.append(calibration())
        return self.calibrations[-1]

    def run_pass(self, workload) -> PassStats:
        self.stats = PassStats()
        start = time.perf_counter()
        workload.run_pass(self)
        self.stats.wall_s = time.perf_counter() - start
        return self.stats

    @contextlib.contextmanager
    def job(self, label):
        """A timed job; the previous calibration, if any, opens its first segment."""
        if not self.calibrations:
            self.calibrate()
        self._job = [0.0, 0.0]
        self._open_segment()
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            yield
        except JobStopped as stop:
            self.failures.append((label, str(stop)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._close_segment()
            self.stats.job_s[label], self.stats.job_ratio[label] = self._job

    def _open_segment(self):
        self._segment_calls = []
        self._segment_start = time.perf_counter()

    def _close_segment(self):
        elapsed = time.perf_counter() - self._segment_start
        cal = (self.calibrations[-1] + self.calibrate()) / 2
        self._job[0] += elapsed
        self._job[1] += elapsed / cal
        self.stats.call_ns.extend(self._segment_calls)
        self.stats.call_ratio.extend(ns / 1e9 / cal for ns in self._segment_calls)

    def _timed(self, label, fn, args):
        """(output, ns) of one operation, or (None, 0) after recording its failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job_id = self.attempted
        if time.monotonic() > self.deadline:
            raise JobStopped("skipped: run time limit reached")
        try:
            t0 = time.perf_counter_ns()
            out = fn(*args)
            return out, time.perf_counter_ns() - t0
        except Exception as exc:  # any library error is a failed operation, not a crash
            self.failures.append((label, f"{type(exc).__name__}: {exc}"))
            return None, 0

    def step(self, label, fn, args, check=None):
        """A timed operation of the current job that is not part of the call stream.

        With ``check``, a seeded share of outputs is checked later.
        """
        out, ns = self._timed(label, fn, args)
        if ns and check is not None and self.pick.random() < self.check_share:
            self.pending.append((label, lambda: check(out)))
        return out, ns

    def call(self, label, fn, args, check):
        """One library call of the call stream: a step whose latency is recorded."""
        out, ns = self.step(label, fn, args, check)
        if ns:
            self._segment_calls.append(ns)
            if time.perf_counter() - self._segment_start > SEGMENT_S:
                self._close_segment()
                self._open_segment()
        return out

    def verify(self, instance, sg, theorem, strategy, expected_cases):
        label = f"verify {theorem} {instance}"
        report = None
        with self.job(label):
            report = self._timed(label, self.sf.verify_theorem, (sg, theorem, strategy))[0]
        if report is None:
            return
        self.stats.verify_jobs.append(label)
        self.stats.cases += report.cases_checked

        def check():
            if report.verdict != "pass":
                return f"verdict {report.verdict}: {report.counterexample}"
            want = expected_cases()
            if report.cases_checked != want:
                return f"{report.cases_checked} cases checked, expected {want}"
        self.pending.append((label, check))

    def cli(self, argv, expected_text):
        label = "cli " + " ".join(argv[:1] + [os.path.basename(a) for a in argv[1:]])
        stdout, stderr = io.StringIO(), io.StringIO()

        def main():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.sf.cli.main(argv)
        code = None
        with self.job(label):
            code, ns = self._timed(label, main, ())
        if code is None:
            return
        digest = hashlib.sha256(stdout.getvalue().encode()).digest()
        message = stderr.getvalue().strip()

        def check():
            if code != 0:
                return f"exit code {code}: {message}"
            if digest != hashlib.sha256(expected_text().encode()).digest():
                return "stdout differs from the expected output"
        self.pending.append((label, check))

    def run_checks(self) -> None:
        for label, check in self.pending:
            try:
                reason = check()
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                self.failures.append((label, reason))
        self.pending.clear()


def _purge(keep: set[str]) -> None:
    for name in [m for m in sys.modules if m not in keep]:
        del sys.modules[name]


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import semifuzz from this checkout's src/; exits 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "semifuzz" / "__init__.py").is_file():
        _refuse(f"no library source at {src / 'semifuzz'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sf = importlib.import_module("semifuzz")
    for name in MODULES:
        importlib.import_module(f"semifuzz.{name}")
    if Path(sf.__file__).resolve().parent != (src / "semifuzz").resolve():
        _refuse(f"imported semifuzz from {sf.__file__}, not from {src}")
    return sf


def measure(cls, rec: Recorder, seed: int, quick: bool, workdir: str, seconds: float):
    """Alternate a fresh set-up and a pass until the next pair would pass ``seconds``.

    Each set-up starts from a fresh import: every module loaded since
    the harness started is dropped from ``sys.modules`` first, and it is
    calibrated like a job.  Outputs are checked between passes, outside
    the timed sections, so memory does not grow with the number of
    passes.  Returns (library, last workload, set-up (seconds, ratio)
    pairs, passes).
    """
    keep = set(sys.modules)
    setups, passes = [], []
    spent = 0.0
    while True:
        _purge(keep)
        before = rec.calibrate()
        start = time.perf_counter()
        sf = _import_library()
        workload = cls(sf, seed, quick, workdir)
        elapsed = time.perf_counter() - start
        setups.append((elapsed, elapsed / ((before + rec.calibrate()) / 2)))
        rec.sf = sf
        passes.append(rec.run_pass(workload))
        rec.run_checks()
        spent += elapsed + passes[-1].wall_s
        if spent + elapsed + passes[-1].wall_s > seconds:
            return sf, workload, setups, passes


def timings(setups, passes: list[PassStats], ratios: bool) -> dict[str, float]:
    """The timing metrics, from calibrated ratios or from raw seconds.

    Every pass repeats the same jobs on the same inputs, so each job and
    each call-stream call is summarized by its median over the passes.
    """
    jobs = {label: statistics.median((p.job_ratio if ratios else p.job_s)[label]
                                     for p in passes if label in p.job_s)
            for label in passes[0].job_s}
    per_call = zip(*((p.call_ratio if ratios else p.call_ns) for p in passes))
    calls = [statistics.median(reps) * (1e6 if ratios else 1e-3) for reps in per_call]
    verify = sum(jobs[label] for label in passes[0].verify_jobs if label in jobs)
    out = {
        "setup_s": statistics.median(s[1 if ratios else 0] for s in setups),
        "wall_s": sum(jobs.values()),
        "cases_per_s": passes[0].cases / verify if verify else 0.0,
        "call_us_p50": statistics.median(calls) if calls else 0.0,
        "call_us_p99": percentile(calls, 99) if calls else 0.0,
    }
    if ratios:  # back to seconds at the reference host speed
        out = {name: value / CALIBRATION_REFERENCE_S if name == "cases_per_s"
               else value * CALIBRATION_REFERENCE_S for name, value in out.items()}
    out["calls"] = len(calls)
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the median for a single value."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long job lists, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_start = time.monotonic()
    cls = WORKLOADS[args.workload]
    workdir = str(OUT / f"{args.workload}-inputs")
    signal.signal(signal.SIGALRM, _on_alarm)
    rec = Recorder(args.seed, cls.check_share, run_start + RUN_LIMIT_S)
    sf, workload, setup_times, passes = measure(cls, rec, args.seed, args.quick, workdir, args.seconds)
    walls = [p.wall_s for p in passes]
    raw = timings(setup_times, passes, ratios=False)
    metrics = timings(setup_times, passes, ratios=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw.pop("calls")
    samples = {"setup_s": len(setup_times), "passes": len(passes), "calls": metrics.pop("calls"),
               "calibrations": len(rec.calibrations)}

    if args.trace:
        tracer = tracing.Tracer()
        rec.tracer = tracer
        restore = tracer.install({name: sys.modules[f"semifuzz.{name}"] for name in MODULES}
                                 | {"package": sf})
        try:
            traced = cls(sf, args.seed, args.quick, workdir)
            traced_pass = rec.run_pass(traced)
        finally:
            restore()
        metrics.update(tracer.layer_metrics())
        untraced = statistics.median(sum(p.job_ratio.values()) for p in passes)
        metrics["trace.overhead_frac"] = sum(traced_pass.job_ratio.values()) / untraced - 1
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.bin", ["setup"] + workload.jobs)

    rec.run_checks()
    failed = len(rec.failures)
    metrics["failed_frac"] = failed / rec.attempted if rec.attempted else 1.0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    report = {
        "workload": args.workload,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "jobs": workload.jobs,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_job_s": [p.job_s for p in passes],
        "pass_job_ratio": [p.job_ratio for p in passes],
        "setup_runs_s": [s for s, _ in setup_times],
        "samples": samples,
        "calibration_median_s": statistics.median(rec.calibrations),
        "raw_metrics": raw,
        "failures": [f"{label}: {reason}" for label, reason in rec.failures[:50]],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "ratio"
    print(f"workload {args.workload}  seed {args.seed}  python {report['python']}  "
          f"nproc {report['nproc']}  git {report['git_sha'] or 'unknown'}")
    print(f"{len(passes)} passes, {len(setup_times)} set-ups, {samples['calls']} call-stream calls, "
          f"calibration median {report['calibration_median_s'] * 1e3:.2f} ms; "
          f"report {report_path.relative_to(ROOT)}")
    for job in workload.jobs:
        print(f"  job: {job}")
    for label, reason in rec.failures[:10]:
        print(f"  FAILED {label}: {reason}")
    shown = [m["name"] for m in wanted] + ["failed_frac"]
    for name in shown:
        print(f"{name}: {metrics.get(name, 0):.6g} {units.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
