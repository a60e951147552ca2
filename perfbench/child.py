"""One pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode timed|traced|setup [--smoke]

`setup` only imports the package and builds the inputs.  `timed` also runs
the job untraced.  `traced` installs the tracer before building the inputs,
runs the job traced and observed, and writes the spans to `perfbench/out/`.
The outputs are checked against the references after the clock has stopped.
Every step of the job is timed from outside its calls.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
from reference import REF_S, Reference, reference_seconds  # noqa: E402
from workloads import BATTERY, WORKLOADS, Gate, engine_class_seconds, search_stats  # noqa: E402


def _cpu() -> tuple[float, float]:
    """User+system CPU seconds of this process and of its ended children.

    getrusage rather than os.times: the same sums, in microseconds instead
    of clock ticks.
    """
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "traced", "setup"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    ref_setup = reference_seconds()
    t0 = time.perf_counter()
    import syncswitch

    if not Path(syncswitch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"syncswitch imported from {syncswitch.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    phase = lambda label: contextlib.nullcontext()  # noqa: E731
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        tracer.recording = True
        phase = tracer.span
    with phase(tracing.PASS):
        with phase(tracing.SETUP):
            inputs = wl.setup(args.seed, args.smoke)
        setup_s = time.perf_counter() - t0
        # rescaled like the job's steps (see reference.py)
        setup_ref_s = setup_s * REF_S / ((ref_setup + reference_seconds()) / 2)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
            return 0
        reference = Reference(wl.workers)
        refs = [reference.seconds()]
        steps = wl.steps(inputs, tracer is not None)
        outputs, times = [], []
        with phase(tracing.JOB):
            for step in steps:
                self0, kids0 = _cpu()
                start = time.perf_counter()
                outputs.append(step())
                wall = time.perf_counter() - start
                self1, kids1 = _cpu()
                times.append((wall, self1 - self0, kids1 - kids0))
                if not tracer:
                    refs.append(reference.seconds())
        if tracer:
            refs.append(reference.seconds())
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    reference.close()
    if tracer:
        tracer.recording = False
    import numpy

    wall_s = sum(t[0] for t in times)
    parent_cpu_s = sum(t[1] for t in times)
    worker_cpu_s = sum(t[2] for t in times)
    # the reference runs on both sides of each step (traced: of the whole job)
    sides = [(refs[0], refs[-1])] * len(times) if tracer else zip(refs, refs[1:])
    speeds = [REF_S / ((before + after) / 2) for before, after in sides]
    wall_ref_s = sum(t[0] * v for t, v in zip(times, speeds))
    gate = Gate()
    wl.verify(inputs, outputs, gate)

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall_s,
        "cpu_s": parent_cpu_s + worker_cpu_s,
        "wall_ref_s": wall_ref_s,
        "cpu_ref_s": sum((t[1] + t[2]) * v for t, v in zip(times, speeds)),
        "reference_s": statistics.median(refs),
        # parent peak plus the largest worker's peak for every worker
        "peak_rss_mib": self_rss + worker_rss * wl.workers,
        "checked": gate.checked,
        "failures": gate.failures,
        "numpy": numpy.__version__,
        "extras": {},
    }
    if wl.workers:
        stats = search_stats(outputs)
        result["extras"]["tables_per_s"] = stats["search.scanned"] / wall_ref_s
        if tracer:
            stats["search.worker_cpu_s"] = worker_cpu_s
            stats["search.parent_cpu_s"] = parent_cpu_s
            stats["search.busy_ratio"] = worker_cpu_s / (wl.workers * stats["search.call_s"])
            result["layers"] = stats
    elif wl.name == "engines":
        result["extras"].update(engine_class_seconds(inputs, outputs, speeds))
    if tracer:
        layers = result.setdefault("layers", {})
        layers.update(tracer.summary())
        for cid, fn in BATTERY:
            layers[f"checks.{cid}.self_s"] = layers.get(f"checks.{fn}.self_s", 0.0)
        # families build the inputs: its self time over set-up and job
        layers["families.s"] = (layers.get("setup.layer.families.self_s", 0.0)
                                + layers.get("layer.families.self_s", 0.0))
        OUT_DIR.mkdir(exist_ok=True)
        pass_id = f"{wl.name}-seed{args.seed}-traced"
        path = OUT_DIR / f"spans-{wl.name}{'-smoke' if args.smoke else ''}.jsonl.gz"
        tracer.write(path, pass_id)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
