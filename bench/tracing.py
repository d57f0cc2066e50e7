"""Span recording for the traced benchmark run.

The tracer rebinds the public functions of each semifuzz module, in
every semifuzz module that holds a reference to them, to wrappers that
record one span per call: label, start, end, parent span and the id of
the benchmark operation (job) that caused it.  Spans live in flat
arrays in memory and are written out once, when the run ends.  Nothing
in the library changes; an untraced run never calls :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import Counter

# module -> public functions wrapped in every module that imported them
FUNCTIONS = {
    "semigroups": ("semigroup_from_json",),
    "fuzzy": ("convolve", "star_convolve", "fuzzy_set_from_json"),
    "decomposition": ("restrict", "extend_by_zero", "subdirect_embed", "agrees_on_divisors"),
    "enumeration": ("transformation_closure",),
    "verification": ("recheck_counterexample",),
}
# generators: a span per next(), "calls" counts the items yielded
GENERATORS = ("enumerate_fuzzy_sets", "enumerate_restricted_sets", "enumerate_semigroups")
# Semigroup methods, recorded as semigroups.<method>
METHODS = ("square_set", "principal_ideal", "divisor_partition", "kernel", "core", "rees_congruence")

FIELDS = (("label", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "i"), ("job", "i"))


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.job_id = 0
        self.items: dict[int, int] = {}  # yields per generator label
        self.cases: Counter[str] = Counter()  # cases_checked per verification label

    def _intern(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.label.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, label: str):
        nid = self._intern(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def wrap_generator(self, fn, label: str):
        nid = self._intern(label)
        self.items[nid] = 0

        def traced(it):
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.items[nid] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs))
        return wrapper

    def wrap_verify(self, fn):
        """Spans named verification.<theorem>; also sums the reports' cases_checked."""
        @functools.wraps(fn)
        def wrapper(semigroup, theorem, strategy):
            label = f"verification.{theorem}"
            idx = self._open(self._intern(label))
            try:
                report = fn(semigroup, theorem, strategy)
            finally:
                self._close(idx)
            self.cases[label] += report.cases_checked
            return report
        return wrapper

    def wrap_cli(self, fn):
        """Spans named cli.main.<verb>."""
        @functools.wraps(fn)
        def wrapper(argv):
            idx = self._open(self._intern(f"cli.main.{argv[0]}"))
            try:
                return fn(argv)
            finally:
                self._close(idx)
        return wrapper

    def install(self, modules: dict) -> callable:
        """Rebind the traced names in every module of ``modules`` (short name -> module).

        Returns a function that restores the originals.
        """
        undo = []

        def rebind(orig, wrapper):
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

        for short, names in FUNCTIONS.items():
            for name in names:
                orig = getattr(modules[short], name)
                rebind(orig, self.wrap(orig, f"{short}.{name}"))
        for name in GENERATORS:
            orig = getattr(modules["enumeration"], name)
            rebind(orig, self.wrap_generator(orig, f"enumeration.{name}"))
        verify = modules["verification"].verify_theorem
        rebind(verify, self.wrap_verify(verify))
        main = modules["cli"].main
        rebind(main, self.wrap_cli(main))
        cls = modules["semigroups"].Semigroup
        for name in METHODS:
            orig = vars(cls)[name]
            undo.append((cls, name, orig))
            setattr(cls, name, self.wrap(orig, f"semigroups.{name}"))

        def restore():
            for target, key, value in reversed(undo):
                setattr(target, key, value)
        return restore

    def layer_metrics(self) -> dict[str, float]:
        """Per-label calls, busy_s, us_p50 and self_s, plus verification cases and ratios.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        count = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * count))
        has_child: set[int] = set()
        verifying = array("b", bytes(count))  # span lies inside a verification span
        ver_ids = {i for i, name in enumerate(self.labels) if name.startswith("verification.")
                   and name != "verification.recheck_counterexample"}
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                has_child.add(self.label[p])
                verifying[i] = verifying[p] or (self.label[p] in ver_ids)

        per_label: dict[int, array] = {}
        self_ns: Counter[int] = Counter()
        kernel_ids = {self._ids.get("fuzzy.convolve"), self._ids.get("fuzzy.star_convolve")}
        kernel_calls = 0
        for i, nid in enumerate(self.label):
            per_label.setdefault(nid, array("q")).append(dur[i])
            self_ns[nid] += dur[i] - child[i]
            if nid in kernel_ids and verifying[i]:
                kernel_calls += 1

        out: dict[str, float] = {}
        for nid, durations in per_label.items():
            name = self.labels[nid]
            busy = sum(durations) / 1e9
            if nid in ver_ids:
                out[f"{name}.busy_s"] = busy
                out[f"{name}.self_s"] = self_ns[nid] / 1e9
                out[f"{name}.cases"] = self.cases[name]
                continue
            if name.startswith("cli.main."):
                out[f"{name}.calls"] = len(durations)
                out[f"{name}.busy_s"] = busy
                continue
            out[f"{name}.calls"] = self.items[nid] if nid in self.items else len(durations)
            out[f"{name}.busy_s"] = busy
            out[f"{name}.us_p50"] = statistics.median(durations) / 1e3
            if nid in has_child:
                out[f"{name}.self_s"] = self_ns[nid] / 1e9
        cases = sum(self.cases.values())
        out["verification.kernel_calls_per_case"] = kernel_calls / cases if cases else 0.0
        return out

    def write(self, path, jobs: list[str]) -> None:
        """One JSON header line, then each field's array as raw native-endian bytes."""
        header = {
            "labels": self.labels,
            "jobs": jobs,
            "fields": [list(f) for f in FIELDS],
            "count": len(self.start),
            "clock": "time.perf_counter_ns",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name, _ in FIELDS:
                getattr(self, name.removesuffix("_ns")).tofile(handle)


def load_spans(path) -> tuple[dict, dict[str, array]]:
    """Read a file written by :meth:`Tracer.write` back into (header, field arrays)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        fields = {}
        for name, code in header["fields"]:
            values = array(code)
            values.fromfile(handle, header["count"])
            fields[name] = values
    return header, fields
