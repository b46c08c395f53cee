"""One step of a benchmark run, in a fresh process.

    python3 perfbench/worker.py <parent clock at spawn> <job.json>

A ``build`` job writes the workload's inputs (the kern corpus and, for the
cv workloads, the feature CSV that ``extract`` makes from it).  A ``run``
job imports ``quartet_attrib.cli``, times one CLI command on those inputs,
then checks its outputs.  The result replaces the job file.  run.py passes
its clock reading taken just before the spawn, so set-up time includes
interpreter start and imports.  The process is pinned to one CPU and a
``HostClock`` samples that CPU's speed from the start of ``main`` to the
end of the timed step; times are reported both as measured (``raw_*``)
and divided by the host factor, peak memory both as measured and without
the probes' own memory.  Nothing here runs on import.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_command(job: dict, cli, w, clock, out: dict) -> None:
    import workloads
    from spans import Tracer

    argv = job["argv"] + ["--out", job["out"]]
    # every repetition keeps what the development pool returns, so its
    # per-fold thresholds and count columns are digested and checked
    tracer = Tracer()
    tracer.install(pool_only=not job["trace"])
    raw_setup = time.monotonic() - job["spawned"]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    raw_wall = time.perf_counter() - t0
    factor = clock.stop()
    raw_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    out.update(rc=rc, host_factor=factor, host_probes=clock.ratios(),
               raw_setup_s=raw_setup, raw_wall_s=raw_wall, raw_peak_rss_mb=raw_rss,
               setup_s=raw_setup / factor, wall_s=raw_wall / factor,
               peak_rss_mb=raw_rss - clock.rss_mb)
    if rc == 0:
        out.update(workloads.check_outputs(w, Path(job["out"]), job["units"], tracer))
    if job["trace"]:
        out["layers"] = tracer.metrics(raw_wall)
        tracer.write(Path(job["out"]) / "spans.jsonl")


def main() -> int:
    spawned = float(sys.argv[1])
    job_path = Path(sys.argv[2])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    job["spawned"] = spawned
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from hostclock import HostClock, pin_to_one_cpu

    pin_to_one_cpu()
    clock = HostClock().start()
    out: dict = {}
    with open(job_path.with_suffix(".log"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        import quartet_attrib.cli as cli

        import workloads

        w = workloads.sized(job["workload"], job["tiny"])
        if job["mode"] == "build":
            t0 = time.perf_counter()
            argv, units = workloads.prepare(w, job["seed"], Path(job["inputs"]), cli)
            raw_build = time.perf_counter() - t0
            factor = clock.stop()
            out.update(workloads.check_inputs(w, Path(job["inputs"])))
            out.update(rc=0, argv=argv, units=units, host_factor=factor,
                       raw_build_s=raw_build, build_s=raw_build / factor)
        else:
            run_command(job, cli, w, clock, out)

    import numpy
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    job_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
