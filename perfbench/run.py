"""Benchmark of the quartet-attrib CLI.

    python3 perfbench/run.py --workload {extract,cv-loo,audit} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs in one process, then runs its CLI command
again and again, each time in a fresh process (start, import, timed
command, output checks), until ``--seconds`` are used, and reports medians
over those repetitions.  Times are divided by the host factor that
``hostclock`` samples during each process, so that they do not follow the
machine's speed phases; the times as measured are printed and recorded
too.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs untraced and traced repetitions in pairs and prints
the per-layer metrics and the tracing overhead.  The last line of standard output is the
JSON result; the lines before it give every metric with its unit, the
output checks and the environment.  A record of each run, with sha256
digests of the output files, goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import compileall
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
#: A run, including its input build, must end well within 180 s.
HARD_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def thread_env() -> dict[str, str]:
    """Pin BLAS/OpenMP pools to one thread: one command, one core."""
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {n: "1" for n in names}


def source_digest(folder: Path) -> str:
    """sha256 over the Python files under ``folder``; identifies the sources
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(folder.rglob("*.py")):
        h.update(str(path.relative_to(folder)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def spawn(job: dict, path: Path, budget_s: float) -> dict:
    """Run one worker job in a fresh process; returns its result, with
    ``rc`` != 0 when the process or the CLI command failed."""
    path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **thread_env()}
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), repr(spawned), str(path)],
            env=env, cwd=ROOT, timeout=max(budget_s, 1.0),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        rc, err = proc.returncode, proc.stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:
        rc, err = -1, "worker timed out"
    out = json.loads(path.read_text(encoding="utf-8")) if rc == 0 else {}
    if rc != 0 or out.get("rc") != 0:
        log = path.with_suffix(".log")
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:] if log.is_file() else ""
        print(f"{path.stem} failed (exit {rc}, cli {out.get('rc')}):\n{err}{tail}",
              file=sys.stderr)
        out = {"rc": out.get("rc", rc)}
    return out


def environment(args, w, versions) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(ROOT / "src"),
        "benchmark_sha256": source_digest(HERE),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **versions,
        "threads": {k: os.environ.get(k, v) for k, v in thread_env().items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": {
            "movements": w.movements,
            "quartets_per_composer": w.quartets,
            "movements_per_quartet": w.movements_per_quartet,
            "notes_per_voice": w.notes_per_voice,
            "own_style": w.own_style,
        },
    }


def measure(args, job: dict, build: dict, work: Path, began: float) -> list[dict]:
    """Repeat the timed command in fresh processes until ``args.seconds``,
    counted from the start of the run, would be exceeded.  With --trace 1
    the repetitions come in pairs, one untraced and one traced, and the
    pairs alternate which kind runs first (untraced, traced, traced,
    untraced, ...); at least three pairs run."""
    reps: list[dict] = []
    longest = 0.0
    need = 6 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(reps) % 4 in (1, 2)
        out = work / f"rep{len(reps)}"
        t = time.monotonic()
        rep_job = {**job, "mode": "run", "trace": traced, "argv": build["argv"],
                   "units": build["units"], "out": str(out)}
        rep = spawn(rep_job, work / f"rep{len(reps)}.json", HARD_LIMIT_S - (t - began))
        rep["traced"] = traced
        reps.append(rep)
        if (out / "spans.jsonl").is_file():
            (out / "spans.jsonl").replace(
                STATE / "results" / f"{record_stem(args)}.spans.jsonl")
        shutil.rmtree(out, ignore_errors=True)
        now = time.monotonic()
        longest = max(longest, now - t)
        ahead = now - began + longest  # run time if one more repetition ran
        if ahead > HARD_LIMIT_S:
            return reps
        if len(reps) >= need and ahead > args.seconds and not (args.trace and len(reps) % 2):
            return reps


def record_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quartet_attrib" / "cli.py").is_file():
        print(f"error: no quartet_attrib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    # byte-compile once, so no repetition pays for it inside its set-up time
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    w = workloads.sized(args.workload, args.tiny)
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny}
    try:
        build = spawn({**job, "mode": "build", "inputs": str(work / "inputs")},
                      work / "build.json", HARD_LIMIT_S)
        if build.get("rc") != 0:
            print("error: building the inputs failed", file=sys.stderr)
            return 1
        reps = measure(args, job, build, work, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in reps if r.get("rc") == 0 and "checks" in r]
    plain = [r for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    # traced minus untraced wall time of each pair in which both succeeded
    overheads = [
        sum(r["wall_s"] if r["traced"] else -r["wall_s"] for r in pair)
        for pair in (reps[i:i + 2] for i in range(0, len(reps) - 1, 2))
        if all(r.get("rc") == 0 and "checks" in r for r in pair)
    ]
    if not plain or (args.trace and not overheads):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    checks: dict[str, bool] = dict(build["checks"])
    for r in ok:
        for name, passed in r["checks"].items():
            checks[name] = checks.get(name, True) and passed
    digests = {**build["digests"], **ok[0]["digests"]}
    checks["identical_across_repetitions"] = all(r["digests"] == ok[0]["digests"] for r in ok)
    facts = ok[0]["facts"]
    checks["same_facts_across_repetitions"] = all(r["facts"] == facts for r in ok)
    env = environment(args, w, ok[0]["versions"])
    record_path = STATE / "results" / f"{record_stem(args)}.json"
    if record_path.is_file():
        previous = json.loads(record_path.read_text(encoding="utf-8"))
        same = ("source_sha256", "benchmark_sha256")
        if all(previous["environment"].get(k) == env[k] for k in same):
            checks["identical_to_previous_run"] = previous["digests"] == digests

    failed_folds = sum(r["facts"].get("failed_folds", 0) for r in ok)
    attempted = len(reps) + sum(r["facts"].get("folds", 0) for r in ok)
    failed = (len(reps) - len(ok)) + failed_folds
    failed += sum(1 for r in ok if not all(r["checks"].values()))

    units = build["units"]
    wall = median_of(plain, "wall_s")
    e2e = {
        "wall_s": wall,
        "units_per_s": statistics.median(units / r["wall_s"] for r in plain),
        "setup_s": build["build_s"] + median_of(plain, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    raw = {
        "wall_s": median_of(plain, "raw_wall_s"),
        "setup_s": build["raw_build_s"] + median_of(plain, "raw_setup_s"),
        "host_factor": median_of(plain, "host_factor"),
    }
    layers = {}
    if traced_reps:
        keys = traced_reps[0]["layers"]
        layers = {k: statistics.median(r["layers"][k] for r in traced_reps) for k in keys}
        layers["trace.wall_s"] = median_of(traced_reps, "wall_s")
        layers["trace.overhead_s"] = statistics.median(overheads)
        layers["trace.host_factor"] = median_of(traced_reps, "host_factor")

    unit_word = "movements" if args.workload == "extract" else "folds"
    print(f"workload {args.workload}  seed {args.seed}  {units} {unit_word}  "
          f"{w.movements} movements of ~{w.notes_per_voice} notes per voice  "
          f"repetitions {len(plain)} untraced, {len(traced_reps)} traced, "
          f"{len(reps) - len(ok)} failed")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  as measured, before dividing by the host factor {raw['host_factor']:.3f}: "
          f"wall_s {raw['wall_s']:.4f} s, setup_s {raw['setup_s']:.4f} s")
    print(f"  {'failed_ratio':<14} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    if "accuracy" in facts:
        print(f"  {'accuracy':<14} {facts['accuracy']:12.4f} ratio  "
              f"(selected per fold {facts['selected_mean']:.2f})")
    for name, value in layers.items():
        print(f"  {name:<34} {value:14.6f}")
    print("  checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()))
    print("  sha256: " + ", ".join(f"{k}={v[:16]}" for k, v in digests.items()))
    print("  environment: " + json.dumps({k: v for k, v in env.items() if k != "sizes"}))

    record = {
        "environment": env,
        "digests": digests,
        "checks": checks,
        "facts": facts,
        "end_to_end": e2e,
        "as_measured": raw,
        "per_layer": layers,
        "failed_ratio": failed / attempted,
        "build": build,
        "repetitions": reps,
    }
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    if args.trace:
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
