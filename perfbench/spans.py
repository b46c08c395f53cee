"""Spans around the program's public functions, recorded from outside it.

The program is not instrumented: the tracer replaces module and class
attributes that callers look up at call time with thin wrappers, records
one span per call (name, start, end, parent span) in memory, and turns the
spans into per-layer metrics after the command has finished.  Counts that
the metrics need are read from return values; a wrapper keeps only the few
fields it needs, so that 10^5 ``glm.fit`` spans stay cheap.  The
development pool's results are kept whole, and in untraced repetitions
only the pool is wrapped, so that every repetition can digest what the
pool returned (``pool_digest``).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict


def _result(args, result):
    return result


def _movements(args, result):
    movements, _errors = result
    return movements  # notes are counted after the command, outside every span


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.notes: dict = defaultdict(list)  # name -> per-call values from results
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        notes = self.notes[name]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if note is not None:
                notes.append(note(args, result))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, original))

    def install(self, pool_only: bool = False) -> None:
        """Wrap every traced function, or with ``pool_only`` just the two
        ``DevelopmentSdPool`` methods whose results ``pool_digest`` hashes."""
        from quartet_attrib import cli, evaluation, features, glm, selection

        pool_cls, matrix_cls = features.DevelopmentSdPool, features.FeatureMatrix
        self.wrap(pool_cls, "thresholds", "features.thresholds", _result)
        self.wrap(pool_cls, "count_columns", "features.count_columns", _result)
        if pool_only:
            return
        self.wrap(cli, "load_corpus", "score.load_corpus", _movements)
        self.wrap(cli, "build_development_pool", "features.pool")
        self.wrap(cli, "extract_all", "features.extract")
        self.wrap(cli, "run_cv", "evaluation.run_cv", _result)
        self.wrap(features, "weighted_quantile", "segments.weighted_quantile",
                  lambda a, r: len(a[0]))
        for attr, name in FAMILIES:
            self.wrap(features, attr, name)
        for module in (features, evaluation):
            self.wrap(module, "near_zero_variance_filter", "features.filter",
                      lambda a, r: r.p)
        self.wrap(matrix_cls, "to_csv", "features.csv_write")
        self.wrap(matrix_cls, "from_csv", "features.csv_read")
        self.wrap(selection, "icm_select", "selection.icm_select",
                  lambda a, r: (len(r.restart_bics), len(r.selected)))
        self.wrap(glm, "fit", "glm.fit",
                  lambda a, r: (r.iterations, r.converged, r.degenerate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def pool_calls(self) -> int:
        return len(self.notes["features.thresholds"])

    def pool_digest(self) -> str:
        """sha256 over every thresholds table and count-column block the
        development pool returned, in call order."""
        h = hashlib.sha256()
        for thresholds in self.notes["features.thresholds"]:
            h.update(json.dumps(thresholds.to_json(), sort_keys=True).encode())
        for block in self.notes["features.count_columns"]:
            h.update(repr(block.shape).encode() + block.astype("<f8").tobytes())
        return h.hexdigest()

    def write(self, path) -> None:
        """Write every span as one JSON array per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced command that took ``wall_s``."""
        total: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child: dict = defaultdict(float)  # name -> time covered by direct children
        top = 0.0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent < 0:
                top += end - start
            else:
                p = self.spans[parent]
                child[p[0]] += end - start

        def self_time(name):
            return total[name] - child[name]

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        notes = self.notes
        notes_total = sum(
            1
            for movements in notes["score.load_corpus"]
            for mv in movements
            for track in mv.voices
            for e in track.events
            if not e.is_rest
        )
        fits = notes["glm.fit"]
        icm = notes["selection.icm_select"]
        restarts = sum(r for r, _ in icm)
        results = notes["evaluation.run_cv"]
        folds = sum(len(r.folds) for r in results)
        out = {
            "score.load_corpus_s": total["score.load_corpus"],
            "score.notes": notes_total,
            "score.us_per_note": ratio(total["score.load_corpus"], notes_total, 1e6),
            "features.pool_s": total["features.pool"],
            "features.thresholds_s": total["features.thresholds"],
            "features.thresholds_calls": calls["features.thresholds"],
            "features.count_columns_s": total["features.count_columns"],
            "features.extract_s": total["features.extract"],
        }
        for _, name in FAMILIES:
            out[name + "_s"] = total[name]
        kept = notes["features.filter"]
        out.update({
            "features.filter_s": total["features.filter"],
            "features.p_kept": ratio(sum(kept), len(kept)),
            "features.csv_write_s": total["features.csv_write"],
            "features.csv_read_s": total["features.csv_read"],
            "segments.weighted_quantile_s": total["segments.weighted_quantile"],
            "segments.weighted_quantile_calls": calls["segments.weighted_quantile"],
            "segments.pairs_in": sum(notes["segments.weighted_quantile"]),
            "glm.fits": len(fits),
            "glm.fit_s": total["glm.fit"],
            "glm.fit_us": ratio(total["glm.fit"], len(fits), 1e6),
            "glm.iters_per_fit": ratio(sum(f[0] for f in fits), len(fits)),
            "glm.nonconverged": sum(1 for f in fits if not f[1]),
            "glm.degenerate": sum(1 for f in fits if f[2]),
            "selection.restarts": restarts,
            "selection.restart_s": ratio(total["selection.icm_select"], restarts),
            "selection.fits_per_restart": ratio(len(fits), restarts),
            "selection.fits_per_s": ratio(len(fits), total["selection.icm_select"]),
            "selection.selected_mean": ratio(sum(s for _, s in icm), len(icm)),
            "selection.self_s": self_time("selection.icm_select"),
            "evaluation.folds": folds,
            "evaluation.fold_s": ratio(total["evaluation.run_cv"], folds),
            "evaluation.failed_folds": sum(f.failed for r in results for f in r.folds),
            "evaluation.self_s": self_time("evaluation.run_cv"),
            "cli.self_s": wall_s - top,
            "trace.coverage": ratio(top, wall_s),
        })
        return out


#: The six feature families ``movement_features`` calls per movement.
FAMILIES = (
    ("basic_summary", "features.basic"),
    ("pairwise_interval_features", "features.pairwise"),
    ("minor_third_segment_features", "features.minor_third"),
    ("exposition_features", "features.exposition"),
    ("development_features", "features.development"),
    ("recapitulation_features", "features.recapitulation"),
)


#: Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "score.load_corpus_s": "s",
    "score.notes": "count",
    "score.us_per_note": "us",
    "features.pool_s": "s",
    "features.thresholds_s": "s",
    "features.thresholds_calls": "count",
    "features.count_columns_s": "s",
    "features.extract_s": "s",
    **{name + "_s": "s" for _, name in FAMILIES},
    "features.filter_s": "s",
    "features.p_kept": "count",
    "features.csv_write_s": "s",
    "features.csv_read_s": "s",
    "segments.weighted_quantile_s": "s",
    "segments.weighted_quantile_calls": "count",
    "segments.pairs_in": "count",
    "glm.fits": "count",
    "glm.fit_s": "s",
    "glm.fit_us": "us",
    "glm.iters_per_fit": "count",
    "glm.nonconverged": "count",
    "glm.degenerate": "count",
    "selection.restarts": "count",
    "selection.restart_s": "s",
    "selection.fits_per_restart": "count",
    "selection.fits_per_s": "1/s",
    "selection.selected_mean": "count",
    "selection.self_s": "s",
    "evaluation.folds": "count",
    "evaluation.fold_s": "s",
    "evaluation.failed_folds": "count",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.host_factor": "ratio",
}
