"""The benchmark's workloads: inputs, the timed CLI command and its checks.

Sizes are set so that a full schedule of runs (4 + 22 runs per workload,
each of three or more fresh processes) fits in under an hour on a two-core
machine: movements per run and folds per command are far fewer than in a
paper-scale run, and both cv workloads select among the reduced feature
scope (basic and interval features).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import corpus

#: Default segment lengths of the paper, passed explicitly to every command.
M_LENGTHS = "8,10,12,14,16,18"
FEATURE_COUNT = 1182


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    quartets: int  # per composer
    movements_per_quartet: int
    notes_per_voice: int
    own_style: float

    @property
    def movements(self) -> int:
        return 2 * self.quartets * self.movements_per_quartet


WORKLOADS = {
    w.name: w
    for w in (
        # Parsing, per-voice preparation, all six families, the pool and one
        # thresholds pass over the whole corpus; glm and selection stay idle,
        # so an ICM change must show no change here.
        Workload(
            name="extract",
            why="kern parsing, the six feature families, pool and one thresholds pass; "
            "glm and selection idle",
            quartets=3,
            movements_per_quartet=2,
            notes_per_voice=1000,
            own_style=0.52,
        ),
        # LOO CV from a feature CSV: almost all time is glm.fit inside ICM;
        # features only filters once, so an extraction change must show no
        # change here.  The styles overlap (accuracy 0.9-1.0) yet keep one
        # feature per fold, so the ICM work is nearly the same for every seed
        # (glm.fit calls: quartiles 2-6% of the median apart over ten seeds).
        # The reduced scope (basic and interval features, about 310
        # candidates after filtering) keeps 16 folds of 15 training rows
        # within a few seconds; the full 1182-column CSV is still read and
        # filtered.
        Workload(
            name="cv-loo",
            why="LOO cv from a feature CSV: time in glm.fit and ICM selection; "
            "extraction idle",
            quartets=4,
            movements_per_quartet=2,
            notes_per_voice=250,
            own_style=0.66,
        ),
        # Leakage audit, LOQO: thresholds recomputed on every training fold
        # (the path that 'sort the pool once, mask per fold' would speed up),
        # parsing and the pool without extract_all, two ICM restarts per fold.
        # The reduced scope keeps ICM, whose work varies most with the seed,
        # to two fifths of the command.  Its candidates do not include the
        # count columns the fold thresholds feed, so cv_result.json does not
        # depend on them; what the pool returns in every fold is digested
        # and checked instead (``pool_outputs``).
        Workload(
            name="audit",
            why="LOQO leakage audit: per-fold thresholds on training rows, parsing "
            "and pool without extract_all, two ICM restarts per fold",
            quartets=2,
            movements_per_quartet=4,
            notes_per_voice=500,
            own_style=0.66,
        ),
    )
}

#: Smaller sizes for the benchmark's own smoke test.
TINY = {
    "extract": dict(quartets=1, movements_per_quartet=1, notes_per_voice=120),
    "cv-loo": dict(quartets=2, movements_per_quartet=2, notes_per_voice=150),
    "audit": dict(quartets=2, movements_per_quartet=2, notes_per_voice=150),
}


#: Calls of ``DevelopmentSdPool.thresholds`` a command makes, by its units.
EXPECTED_POOL_CALLS = {
    "extract": lambda units: 1,
    "cv-loo": lambda units: 0,
    "audit": lambda units: units,
}


def sized(name: str, tiny: bool) -> Workload:
    w = WORKLOADS[name]
    if not tiny:
        return w
    return Workload(**{**vars(w), **TINY[name]})


def prepare(w: Workload, seed: int, inputs: Path, cli) -> tuple[list[str], int]:
    """Build the inputs in ``inputs``; return the timed command's argv
    (without ``--out``) and how many units (movements or folds) it processes."""
    root = inputs / "corpus"
    manifest = corpus.write_corpus(
        root, seed, w.quartets, w.movements_per_quartet, w.notes_per_voice, w.own_style
    )
    common = ["--corpus", str(root), "--manifest", str(manifest), "--m-lengths", M_LENGTHS]
    if w.name == "extract":
        return ["extract", *common], w.movements
    if cli.main(["extract", *common, "--out", str(inputs)]) != 0:
        raise RuntimeError("extracting the input feature CSV failed")
    csvs = ["--features", str(inputs / "features.csv"),
            "--meta", str(inputs / "movement_meta.csv")]
    model = ["--preset", "hm285", "--scope", "reduced", "--seed", str(seed), "--jobs", "1"]
    if w.name == "cv-loo":
        return ["cv", *csvs, *model, "--restarts", "1"], w.movements
    argv = ["cv", "--leakage-audit", "--scheme", "loqo", *model, "--restarts", "2",
            *common, *csvs]
    return argv, 2 * w.quartets


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_features(folder: Path, w: Workload) -> dict:
    """features.csv is n x 1182 with the registry's header; digests of the
    feature CSV and thresholds.json."""
    from quartet_attrib.features import feature_names

    with open(folder / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    labels = [fn.label for fn in feature_names()]
    checks = {
        "features_header": rows[0] == ["source_path", *labels],
        "features_shape": len(labels) == FEATURE_COUNT
        and len(rows) == 1 + w.movements
        and all(len(r) == 1 + FEATURE_COUNT for r in rows[1:]),
    }
    digests = {name: _sha256(folder / name) for name in ("features.csv", "thresholds.json")}
    return {"checks": checks, "digests": digests}


def check_inputs(w: Workload, inputs: Path) -> dict:
    if w.name == "extract":
        return {"checks": {}, "digests": {}}
    return _check_features(inputs, w)


def check_outputs(w: Workload, out: Path, units: int, tracer) -> dict:
    """Checks, sha256 digests and facts (accuracy, folds) of one command's
    outputs.  ``tracer`` holds what the development pool returned: one
    whole-corpus thresholds table on ``extract``, none on ``cv-loo``, one
    per training fold on ``audit``."""
    calls = tracer.pool_calls()
    pool = {
        "checks": {"pool_thresholds_calls": calls == EXPECTED_POOL_CALLS[w.name](units)},
        "digests": {"pool_outputs": tracer.pool_digest()} if calls else {},
    }
    if w.name == "extract":
        found = _check_features(out, w)
        return {"checks": {**found["checks"], **pool["checks"]},
                "digests": {**found["digests"], **pool["digests"]}, "facts": {}}
    with open(out / "cv_result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    folds = result["folds"]
    failed = sum(1 for f in folds if f["failed"])
    facts = {
        "folds": len(folds),
        "failed_folds": failed,
        "accuracy": result["accuracy"],
        "selected_mean": sum(len(f["selected"]) for f in folds) / max(len(folds), 1),
    }
    checks = {"one_record_per_fold": len(folds) == units, "no_failed_folds": failed == 0,
              **pool["checks"]}
    digests = {"cv_result.json": _sha256(out / "cv_result.json"), **pool["digests"]}
    return {"checks": checks, "digests": digests, "facts": facts}
