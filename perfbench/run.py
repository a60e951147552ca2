"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py): search-binary, search-cyclic, engines, battery.
Run it from anywhere; it benchmarks the package in `src/` next to this
directory and refuses to run without it.

With --trace 0 the run makes timed passes until --seconds have gone by (and
at least MIN_PASSES), each in a fresh interpreter, plus a few set-up-only
interpreters, and reports the median of every end-to-end metric.  With --trace 1 it makes one untraced pass and
one traced pass, and reports the per-layer metrics of the traced
pass together with the tracing overhead.  Every pass checks its outputs
against the references; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `attempted` counts the outputs checked and `failed` those that
differed.  The full record, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import BATTERY, WORKLOADS  # noqa: E402

# Set-up-only interpreters per timed run, on top of the passes' own set-ups.
SETUP_PROBES = 5
# Timed passes per run at least, whatever --seconds says.
MIN_PASSES = 3
# Every run must end within this many seconds.
RUN_LIMIT_S = 175

# name -> (unit, better); the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref_s": ("s", "lower"),
    "cpu_ref_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

_SYNCHRO = ("is_synchronizing", "shortest_sync_length", "min_switch_count",
            "optimal_sync_word", "count_optimal_words", "optimal_words")
PER_LAYER = {
    "search.call_s": ("s", "lower"),
    "search.worker_cpu_s": ("s", "lower"),
    "search.parent_cpu_s": ("s", "lower"),
    "search.busy_ratio": ("ratio", "higher"),
    "search.shard_sum_s": ("s", "lower"),
    "search.shards": ("count", "lower"),
    "search.first_shard_s": ("s", "lower"),
    "search.shard_gap_max_s": ("s", "lower"),
    "search.after_last_shard_s": ("s", "lower"),
    "search.scanned": ("tables", "lower"),
    "search.forms.states_and_symbols": ("count", "lower"),
    "search.forms.states_only": ("count", "lower"),
    "search.complete": ("count", "higher"),
    "tables_per_s": ("tables/s", "higher"),
    **{f"{call}_{cls}_s": ("s", "lower")
       for call in ("ssl", "sw", "length", "swlen") for cls in ("dense", "sparse")},
    **{f"synchro.{fn}.{m}": (unit, "lower")
       for fn in _SYNCHRO for m, unit in (("calls", "count"), ("s", "s"))},
    "closure.power_closure.calls": ("count", "lower"),
    "closure.power_closure.s": ("s", "lower"),
    "closure.f_transform.s": ("s", "lower"),
    "closure.f2_transform.s": ("s", "lower"),
    "analysis.verify_lemmas.s": ("s", "lower"),
    "analysis.distance_context.s": ("s", "lower"),
    "analysis.min_sc_pair_increase.s": ("s", "lower"),
    "analysis.canonical_word.s": ("s", "lower"),
    "automaton.apply_set.calls": ("count", "lower"),
    "automaton.apply_set.s": ("s", "lower"),
    "families.s": ("s", "lower"),
    **{f"checks.{cid}.self_s": ("s", "lower") for cid, _ in BATTERY},
    "checks.brute_force_optima.calls": ("count", "lower"),
    "checks.brute_force_optima.s": ("s", "lower"),
    **{f"layer.{m}.self_s": ("s", "lower")
       for m in ("search", "synchro", "closure", "analysis", "automaton", "families", "checks")},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.self_coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}

# units of the values that are printed but not reported in the result line
EXTRA_UNITS = {"raw_setup_s": "s", "raw_wall_s": "s", "raw_cpu_s": "s", "untraced_wall_s": "s",
               "traced_wall_s": "s", "passes": "count", "setup_samples": "count"}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
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
    return "unknown"


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, smoke: bool, deadline: float) -> dict:
    """Run child.py in a fresh interpreter of its own session; kill it at the deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassError(f"{mode} pass of {workload} ran past the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def timed_run(args, wl, deadline: float) -> tuple[dict, list[dict], dict]:
    start = perf_counter()
    passes = []
    while (len(passes) < (1 if args.smoke else MIN_PASSES)
           or (perf_counter() - start < args.seconds and not args.smoke)):
        passes.append(run_pass(wl.name, args.seed, "timed", args.smoke, deadline))
    setups = passes + [run_pass(wl.name, args.seed, "setup", args.smoke, deadline)
                       for _ in range(1 if args.smoke else SETUP_PROBES)]
    metrics = {"setup_s": statistics.median(p["setup_ref_s"] for p in setups)}
    for name in ("wall_ref_s", "cpu_ref_s", "peak_rss_mib"):
        metrics[name] = statistics.median(p[name] for p in passes)
    # measured seconds, before rescaling to the reference host speed
    extras = {f"raw_{name}": statistics.median(p[name] for p in passes) for name in ("wall_s", "cpu_s")}
    extras["raw_setup_s"] = statistics.median(p["setup_s"] for p in setups)
    extras.update({key: statistics.median(p["extras"][key] for p in passes) for key in passes[0]["extras"]})
    counts = {"passes": len(passes), "setup_samples": len(setups),
              "samples": {name: [p[name] for p in passes]
                          for name in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mib", "reference_s")}}
    return metrics, passes, {**extras, **counts}


def traced_run(args, wl, deadline: float) -> tuple[dict, list[dict], dict]:
    plain = run_pass(wl.name, args.seed, "timed", args.smoke, deadline)
    traced = run_pass(wl.name, args.seed, "traced", args.smoke, deadline)
    layers = dict(traced["layers"])
    layers.update(plain["extras"])
    layers["trace.overhead_ratio"] = traced["wall_ref_s"] / plain["wall_ref_s"]
    # a layer that this workload does not run did no work: 0
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    extras = {"spans_file": traced["spans_file"], "untraced_wall_s": plain["wall_s"],
              "traced_wall_s": traced["wall_s"]}
    return metrics, [plain, traced], extras


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass: checks the gate and schema")
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "syncswitch" / "__init__.py").is_file():
        print(f"error: no syncswitch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, passes, extras = traced_run(args, wl, deadline)
        else:
            metrics, passes, extras = timed_run(args, wl, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["checked"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    specs = PER_LAYER if args.trace else END_TO_END
    env = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "cpu_count": os.cpu_count(), "workers": wl.workers,
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "platform": platform.platform(), "git_commit": git_commit(ROOT),
    }
    for failure in failures[:20]:
        print(f"MISMATCH {failure}")
    print(f"env {json.dumps(env)}")
    for key, value in extras.items():
        if not isinstance(value, dict):
            print(f"  {key} = {value} {EXTRA_UNITS.get(key) or PER_LAYER.get(key, ('',))[0]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {specs[name][0]}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} outputs, {len(passes)} passes)")

    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": specs[name][0]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "extras": extras, "failures": failures, **result}
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
