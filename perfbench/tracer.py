"""Span tracing of the public functions of `syncswitch`, from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span, in every `syncswitch` namespace that holds the
function: `checks` imports the engines by name, so patching `synchro` alone
would miss those calls.  Spans (name, start, end, parent) stay in flat arrays
in memory and are written out once, at the end.  Processes forked while a
tracer is installed (search workers) record nothing.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

# The package's modules, one layer each.  `cli` is an argparse wrapper over
# functions traced here, so it is left out.
PACKAGE = "syncswitch"
LAYERS = ("search", "synchro", "closure", "analysis", "automaton", "families", "checks")

# Synthetic spans the benchmark opens around its own phases.
PASS, SETUP, JOB = "bench.pass", "bench.setup", "bench.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no enclosing span has the same name: inclusive times sum these
        self.outermost = array("b")
        self._active: list[int] = []
        self._stack: list[int] = []
        self.recording = False
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    def _name_id(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[sid]] -= 1

    @contextmanager
    def span(self, label: str):
        """A span around a phase of the benchmark itself."""
        sid = self._open(self._name_id(label))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, label: str):
        nid = self._name_id(label)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer totals over the spans below the job span.

        `<fn>.calls` counts every span, `<fn>.s` sums the outermost ones
        (inclusive time), `<fn>.self_s` sums self time; `layer.<m>.self_s`
        sums self time per module.  Spans outside the job are counted
        under the `setup.` prefix, so that set-up work stays visible.
        """
        own = self.self_times()
        root = self._name_ids[JOB]
        phase = [""] * len(self.start)
        out: dict[str, float] = {}
        for sid, p in enumerate(self.parent):
            nid = self.name[sid]
            if nid == root:
                phase[sid] = "job"
            elif p >= 0:
                phase[sid] = phase[p]
            label = self.names[nid]
            if label.startswith("bench."):
                continue
            prefix = "" if phase[sid] == "job" else "setup."
            out[f"{prefix}{label}.calls"] = out.get(f"{prefix}{label}.calls", 0) + 1
            if self.outermost[sid]:
                key = f"{prefix}{label}.s"
                out[key] = out.get(key, 0.0) + self.end[sid] - self.start[sid]
            key = f"{prefix}{label}.self_s"
            out[key] = out.get(key, 0.0) + own[sid]
            key = f"{prefix}layer.{label.split('.')[0]}.self_s"
            out[key] = out.get(key, 0.0) + own[sid]
        jobs = [sid for sid in range(len(self.start)) if self.name[sid] == root]
        job_s = sum(self.end[s] - self.start[s] for s in jobs)
        glue_s = sum(own[s] for s in jobs)
        out["trace.traced_s"] = job_s
        out["trace.self_coverage"] = (job_s - glue_s) / job_s if job_s else 0.0
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path, pass_id: str) -> None:
        """All spans as gzipped JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"pass_id": pass_id, "names": self.names,
                                 "fields": ["span", "parent", "name", "start", "end"]}) + "\n")
            for sid in range(len(self.start)):
                fh.write(f"[{sid},{self.parent[sid]},{self.name[sid]},"
                         f"{self.start[sid]!r},{self.end[sid]!r}]\n")
