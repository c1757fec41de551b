"""The repository benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload flash-xl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, untraced
    python3 perfbench/run.py --trace 1        # every workload, traced
    python3 perfbench/run.py --record-digests # rewrite perfbench/digests.json

Each workload runs in a fresh child process (``workloads.py``) with its
own trace cache, checkpoint directory and service data directory under
``.perfbench_tmp/`` in the checkout; they are removed afterwards, and a
run that touches the repository's ``results/`` fails.  The command
prints every metric by name with its unit, the run manifest and the
correctness verdict, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones
with ``--trace 1``.  It exits non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed digests are recorded for by default, and the held-out one
#: kept for rechecking a claim on a seed not used while making it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099

#: A workload child is stopped after this long (the command must end
#: within 180 s).
CHILD_TIMEOUT_S = 170.0


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def results_state() -> set:
    """(path, size, mtime) of everything under the repo's ``results/``."""
    state = set()
    for dirpath, _, files in os.walk(ROOT / "results"):
        for name in files:
            path = Path(dirpath) / name
            stat = path.stat()
            state.add((str(path), stat.st_size, stat.st_mtime_ns))
    return state


def run_child(workload: str, seed: int, seconds: float, trace: int,
              record: bool = False) -> Optional[dict]:
    """Run one workload in a fresh process; returns its result document."""
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_TRACE_DIR"] = str(tmp / "traces")
    env["REPRO_CHECKPOINT_DIR"] = str(tmp / "checkpoints")
    out = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", str(tmp), "--out", str(out)]
    if record:
        cmd.append("--record")
    # A session of its own, so a stuck child and the service it started
    # can be stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S:.0f}s; stopped",
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        return json.loads(out.read_text()) if out.exists() else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass


def report(workload: str, doc: Optional[dict], trace: int,
           hermetic: bool) -> dict:
    """Print one workload's result; returns the driver's JSON object."""
    spec = contract()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if doc is None:
        print(f"== {workload}: no result (the workload process failed)")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    man = doc["manifest"]
    print(f"== {workload}  seed={man['seed']}  seconds={man['seconds']}"
          f"  tracing={'on' if trace else 'off'}")
    print(f"   manifest: git_sha={man['git_sha']} "
          f"source_sha256={man['source_sha256']} python={man['python']} "
          f"numpy={man['numpy']} nproc={man['nproc']}")
    print(f"   params: {json.dumps(man['params'], sort_keys=True)}")
    errors = list(doc["errors"])
    if not hermetic:
        errors.append("the run wrote under the repository's results/")
    metrics = {}
    for entry in wanted:
        value = doc.get("metrics", {}).get(entry["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {entry['name']} missing or not finite")
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"   {entry['name']:<42} {value:>14.6g} {entry['unit']}")
    attempted = max(int(doc["attempted"]), 1)
    failed = int(doc["failed"]) + len(errors) - len(doc["errors"])
    print(f"   {'error_rate':<42} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    unit = f" calls in {doc['rounds']} round(s)" if "rounds" in doc else " jobs"
    setups = [round(s, 4) for s in doc.get("setup_s_samples", [])]
    print(f"   samples: {doc.get('samples')}{unit}; set-up times: {setups} s")
    if workload == "catalog-service":
        params = man["params"]
        print(f"   closed loop: {params['clients']} clients, poll interval "
              f"{params['poll_interval_s'] * 1e3:g} ms")
    if trace and "layers" in doc:
        print(f"   {'layer':<36} {'calls':>9} {'rows':>10} {'total_s':>9}"
              f" {'self_raw_s':>10} {'self_s':>9}")
        for layer, e in sorted(doc["layers"].items(),
                               key=lambda kv: -kv[1]["self_s"]):
            print(f"   {layer:<36} {e['calls']:>9} {e['rows']:>10}"
                  f" {e['total_s']:>9.4f} {e['self_raw_s']:>10.4f}"
                  f" {e['self_s']:>9.4f}")
        print("   (whole traced run; self_s is calibrated, self_raw_s is not)")
        print(f"   tracing overhead: traced wall - untraced wall = "
              f"{doc['overhead_s']:.3f} s over the same work")
    if doc.get("recorded_seed"):
        print("   digests: checked against perfbench/digests.json")
    else:
        print("   digests: none recorded for this seed; determinism and "
              "service-vs-in-process checks only")
    for error in errors:
        print(f"   ERROR: {error}")
    correct = failed == 0
    print(f"   correct: {str(correct).lower()}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_digests() -> int:
    table: Dict[str, Dict[str, dict]] = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            doc = run_child(workload, seed, 1.0, 0, record=True)
            if doc is None:
                print(f"perfbench: recording {workload} seed {seed} failed",
                      file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = doc["digests"]
            print(f"recorded {workload} seed {seed}: {doc['digests']}")
    path = HERE / "digests.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "digests": table,
    }, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    seconds = (args.seconds if args.seconds is not None
               else float(contract()["run_seconds"]))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for workload in workloads:
        before = results_state()
        doc = run_child(workload, args.seed, seconds, args.trace)
        results.append(report(workload, doc, args.trace,
                              results_state() == before))
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{workload}/{name}": value
                for workload, r in zip(workloads, results)
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
