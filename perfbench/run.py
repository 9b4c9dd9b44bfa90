"""The dirlink benchmark.

    python3 perfbench/run.py                  # every workload: metric table, checks
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dirlink checkout; it imports ``dirlink`` from
``src/`` there and writes only under ``.perfbench_work/``.  Each repeat of a
workload runs in fresh child processes (``child.py``) and a run repeats until
``--seconds`` of timed work, at least twice, so that outputs can be compared
across repeats.  A child that crashes or is killed counts as a failed
operation; the run goes on.  With ``--trace 1`` the first repeat is untraced
and the second traced, which gives the per-layer numbers and the tracing
overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is nonzero
when a correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from child import GRID_ENCODERS, GRID_SPLIT_SEEDS

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; children still running at the deadline are killed
DEADLINE_S = 170.0

# grid_synth200 reports its wall time with each row's training time scaled by
# this many epochs over the row's epoch count on record for its training seed
# (grid_epochs.json).  Early stopping makes each row's epoch count, and so the
# encoder mix of the grid, depend on the seed; the counts on record take that
# spread out, while a change that makes early stopping run longer still shows.
GRID_ROW_EPOCHS = 250
with open(HERE / "grid_epochs.json", encoding="utf-8") as _fh:
    GRID_EPOCHS = json.load(_fh)["epochs"]
# set-up-only children per run; their set-up times join the median of setup_s
SETUP_PROBES = 3

with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
# the metrics of BENCHMARK.json, name -> unit: every workload reports all of them
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# the workload-specific metrics of the printed table: name -> unit
TABLE = {
    "setup_s": "s", "grid_s": "s", "epochs": "count", "epochs_on_record": "count",
    "epoch_ms": "ms", "test_auc": "%",
    "peak_rss_mb": "MB", "recon_s": "s", "recon_peak_rss_mb": "MB", "prep_s": "s",
    "failed_ops": "ratio",
}


class Context:
    """Where one repeat runs: its directory, seed, tracing flag and deadline."""

    def __init__(self, root, directory, seed, traced, deadline):
        self.root = root
        self.dir = directory
        self.seed = seed
        self.traced = traced
        self.deadline = deadline

    def child(self, mode, name, *extra):
        """Run child.py in a fresh process; its result dict, or a failure record."""
        out = self.dir / name
        out.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(out),
               "--seed", str(self.seed), "--t0", repr(t0), *map(str, extra)]
        if self.traced:
            cmd.append("--trace")
        with open(out / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"failed": f"{mode}: timed out"}
        if code != 0:
            tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            reason = "killed by SIGKILL (out of memory?)" if code == -9 else f"exit code {code}"
            return {"failed": f"{mode}: {reason}: {' | '.join(tail)}"}
        with open(out / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        if self.traced:
            with open(out / "spans.json", encoding="utf-8") as fh:
                result["spans"] = json.load(fh)["spans"]
        return result


def _failed(attempted, failed, reasons):
    return {"ok": False, "attempted": attempted, "failed": failed, "errors": reasons}


def grid_repeat(ctx):
    """grid_synth200: grid_run over SDGAE, DiGAE and MLP on the protocol split prefix."""
    r = ctx.child("grid", "grid")
    if "failed" in r:
        rows = len(GRID_ENCODERS) * len(GRID_SPLIT_SEEDS)
        return _failed(rows, rows, [r["failed"]])
    rows = r["data"]["rows"]
    seed = r["data"]["train_seed"]
    on_record = GRID_EPOCHS[str(seed)]
    epochs = [row["epochs"] for row in rows]
    train_s = sum(row["seconds"] for row in rows)
    scaled_s = sum(row["seconds"] * GRID_ROW_EPOCHS / e for row, e in zip(rows, on_record))
    errors = []
    if epochs != on_record:
        errors.append(f"training seed {seed} ran {epochs} epochs per row, {on_record} on "
                      "record; phase_s counts the difference")
    return {
        "ok": True, "attempted": r["ops"], "failed": r["failed_ops"], "errors": errors,
        "run_s": r["run_s"], "phase_s": r["run_s"] - train_s + scaled_s,
        "setup_s": r["setup_s"], "max_rss_mb": r["peak_rss_mb"],
        "epochs": epochs,
        "table": dict(r["metrics"], setup_s=r["setup_s"], peak_rss_mb=r["peak_rss_mb"],
                      epochs=r["epochs"], epochs_on_record=sum(on_record)),
        "digest": r["digest"], "checks": r["checks"], "children": {"grid": r},
    }


def rmat_repeat(ctx):
    """rmat_train_recon: child A trains and checkpoints, child B reconstructs."""
    a = ctx.child("train", "train", "--work", ctx.dir)
    if "failed" in a:
        return _failed(2, 2, [a["failed"], "recon: not run, training failed"])
    b = ctx.child("recon", "recon", "--checkpoint", a["data"]["checkpoint"])
    if "failed" in b:
        return _failed(2, 1, [b["failed"]])
    return {
        "ok": True, "attempted": 2, "failed": 0, "errors": [],
        "run_s": a["run_s"] + b["run_s"], "phase_s": a["run_s"] + b["run_s"],
        "setup_s": a["setup_s"],
        "max_rss_mb": max(a["peak_rss_mb"], b["peak_rss_mb"]),
        "epochs": [a["data"]["epochs_run"]],
        "table": dict(a["metrics"], setup_s=a["setup_s"], peak_rss_mb=a["peak_rss_mb"],
                      epochs=a["data"]["epochs_run"],
                      recon_s=b["run_s"], recon_peak_rss_mb=b["peak_rss_mb"]),
        "digest": a["digest"] + b["digest"], "checks": a["checks"] + b["checks"],
        "children": {"train": a, "recon": b},
    }


def prep_repeat(ctx):
    """prep_rmat40k: ingest, preprocess, split, save, negatives, features, operator."""
    r = ctx.child("prep", "prep")
    if "failed" in r:
        return _failed(1, 1, [r["failed"]])
    return {
        "ok": True, "attempted": 1, "failed": 0, "errors": [],
        "run_s": r["run_s"], "phase_s": r["run_s"],
        "setup_s": r["setup_s"], "max_rss_mb": r["peak_rss_mb"],
        "table": dict(r["metrics"], setup_s=r["setup_s"], peak_rss_mb=r["peak_rss_mb"]),
        "digest": r["digest"], "checks": r["checks"], "children": {"prep": r},
    }


# workload -> (child mode whose set-up is probed, one repeat)
WORKLOADS = {
    "grid_synth200": ("grid", grid_repeat),
    "rmat_train_recon": ("train", rmat_repeat),
    "prep_rmat40k": ("prep", prep_repeat),
}


def _sha256_tree(directory, pattern):
    h = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        if "__pycache__" in path.parts or not path.is_file():
            continue
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root):
    """Machine, toolchain and code identity of this run."""
    meminfo = {}
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition(":")
            meminfo[key] = val.strip()
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram": meminfo.get("MemTotal"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "dirlink_sources_sha256": _sha256_tree(root / "src" / "dirlink", "*"),
        "benchmark_sources_sha256": _sha256_tree(HERE, "*.py"),
    }


def run_workload(root, name, seed, seconds, trace):
    """All repeats of one workload; returns the full result record.

    Set-up-only children run first, so the first repeat pays no cold-start
    cost that the others do not, and their set-up times join the median.
    """
    setup_mode, repeat = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    base = root / ".perfbench_work" / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    probes = [Context(root, base, seed, False, deadline).child(setup_mode, f"setup{i}",
                                                               "--setup-only")
              for i in range(SETUP_PROBES)]
    reps = []
    measured = 0.0
    last = 0.0
    while True:
        index = len(reps)
        if index >= 2 and (trace or measured >= seconds or not all(r["ok"] for r in reps)):
            break
        if index and time.monotonic() + 1.2 * last > deadline:
            break
        began = time.monotonic()
        ctx = Context(root, base / f"rep{index}", seed, trace and index == 1, deadline)
        rep = repeat(ctx)
        rep["traced"] = ctx.traced
        reps.append(rep)
        last = time.monotonic() - began
        measured += rep.get("run_s", last)

    done = [r for r in reps if r["ok"]]
    untraced = [r for r in done if not r["traced"]]
    checks = [f"repeat {i}: {c}" for i, r in enumerate(reps) for c in r.get("checks", [])]
    if len({r["digest"] for r in done}) > 1:
        checks.append("outputs differ across repeats: "
                      + ", ".join(r["digest"][:16] for r in done))
    # early stopping decides the grid's epoch count: for a seed it must not vary
    if len({tuple(r.get("epochs", ())) for r in done}) > 1:
        checks.append("epoch counts differ across repeats: "
                      + "; ".join(str(r["epochs"]) for r in done))
    if len(done) < 2:
        checks.append(f"determinism not checked: {len(done)} of {len(reps)} repeats completed")
    errors = list(dict.fromkeys(e for r in reps for e in r["errors"]))
    errors += [p["failed"] for p in probes if "failed" in p]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repeats": len(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "errors": errors,
        "checks_failed": checks,
        "correct": not checks,
        "metrics": {},
        "table": {},
        "per_layer": {},
        "repeat_records": [{k: v for k, v in r.items() if k != "children"} for r in reps],
        "children": [r.get("children", {}) for r in reps],
    }
    if untraced:
        record["metrics"] = {key: statistics.median(r[key] for r in untraced)
                             for key in END_TO_END}
        setups = [r["setup_s"] for r in untraced] + [p["setup_s"] for p in probes
                                                      if "setup_s" in p]
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
        record["table"] = {key: statistics.median(r["table"][key] for r in untraced)
                           for key in untraced[0]["table"]}
        record["table"]["setup_s"] = record["metrics"]["setup_s"]
    record["table"]["failed_ops"] = record["failed"] / max(record["attempted"], 1)
    traced = [r for r in done if r["traced"]]
    if traced and untraced:
        merged = spans.merge(c.pop("spans") for c in traced[0]["children"].values())
        record["per_layer"] = spans.layer_metrics(merged, PER_LAYER)
        base_s = untraced[0]["phase_s"]
        record["per_layer"]["trace.overhead_pct"] = 100.0 * (traced[0]["phase_s"] - base_s) / base_s
        record["span_table"] = spans.span_table(merged)
        record["spans"] = merged
    shutil.rmtree(base, ignore_errors=True)
    return record


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(record):
    status = "correct" if record["correct"] else "INCORRECT"
    print(f"== {record['workload']} seed={record['seed']} repeats={record['repeats']} "
          f"ops={record['attempted']} failed={record['failed']} {status}")
    for key, unit in TABLE.items():
        if key in record["table"]:
            print(f"   {key:<20} {_fmt(record['table'][key]):>12} {unit}")
    for key, unit in END_TO_END.items():
        if key in record["metrics"]:
            print(f"   {key + ' (bounded)':<20} {_fmt(record['metrics'][key]):>12} {unit}")
    for key, unit in PER_LAYER.items():
        if key in record["per_layer"]:
            print(f"   {key:<28} {_fmt(record['per_layer'][key]):>12} {unit}")
    for line in record["errors"] + record["checks_failed"]:
        print(f"   !! {line}")


def save_record(root, record, machine):
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(record, provenance=machine)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    if "spans" in record:
        with open(results / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"run": stem, "spans": record.pop("spans")}, fh)
    path = results / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dirlink" / "__init__.py").is_file():
        print(f"no dirlink sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # fill the bytecode cache first so that no timed child pays for compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "dirlink"),
                    str(HERE)], check=True, stdout=subprocess.DEVNULL, timeout=120)
    machine = provenance(root)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        path = save_record(root, record, machine)
        print_table(record)
        print(f"   results: {path.relative_to(root)}")
        records.append(record)

    correct = all(r["correct"] for r in records)
    if args.workload == "all":
        summary = {r["workload"]: {"correct": r["correct"], "attempted": r["attempted"],
                                   "failed": r["failed"], "metrics": r["metrics"]}
                   for r in records}
        print(json.dumps(summary))
        return 0 if correct else 1
    record = records[0]
    if args.trace:
        units, values = PER_LAYER, record["per_layer"]
    else:
        units, values = END_TO_END, record["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
