"""Command-line entry point for reproducible attribution runs.

Commands: extract (corpus -> feature CSV), cv (cross-validated
classification), fit (full-data model + diagnostics), report (re-render a
stored model), compare (agreement between two CV runs).  Every command
writes the resolved run configuration next to its outputs so a run can be
reproduced byte-for-byte from its output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .evaluation import (
    MODES,
    CVConfig,
    CVResult,
    compare_runs,
    fit_full_model,
    json_float,
    require_keys,
    run_cv,
    selection_stability,
    write_fold_csv,
    write_probability_csv,
    write_stability_csv,
)
from .features import (
    DEFAULT_SEGMENT_LENGTHS,
    DevelopmentSdPool,
    FeatureMatrix,
    SegmentConfig,
    build_development_pool,
    extract_all,
    THRESHOLD_READINGS,
)
from .glm import PriorConfig
from .score import load_corpus, movement_to_json

logger = logging.getLogger(__name__)

SEED_ENV = "QUARTET_ATTRIB_SEED"

#: Per-dataset policies, keyed by CVConfig field (and ``xi``, the prior scale
#: factor); a setting that a preset leaves out keeps CVConfig's default.
PRESETS = {
    "hm285": {"xi": 0.6, "cutoff_policy": "tuned", "filter_mode": "global"},
    "hm107": {"xi": 0.6, "cutoff_policy": "fixed", "filter_mode": "global"},
}


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        return SegmentConfig(tuple(int(tok) for tok in text.split(",") if tok.strip())).lengths
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    """payload as strict JSON, each NaN written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_nan_as_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _nan_as_null(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_as_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_as_null(v) for v in value]
    return value


def _corpus_pass(args, consume):
    """Run ``consume`` on the manifest movements as they are parsed and
    return its result.

    Parse errors are printed once the pass ends, before any other message,
    so a failure reads as if the whole corpus had been parsed first: a
    parse error without ``--skip-bad`` ends the feed and stops the command,
    then a corpus without movements does, then an error of ``consume``.
    The rest of the manifest is parsed only to name every bad file.
    """
    corpus_root = Path(args.corpus)
    if not corpus_root.is_dir():
        raise SystemExit(f"error: corpus root {corpus_root} is not a directory")
    movements, errors = load_corpus(corpus_root, args.manifest)
    fatal = not args.skip_bad
    parsed = 0

    def feed():
        nonlocal parsed
        for mv in movements:
            if errors and fatal:
                return
            parsed += 1
            yield mv

    failure = None
    try:
        result = consume(feed())
    except ValueError as exc:
        failure = exc
    parsed += sum(1 for _ in movements)
    for path, msg in errors:
        print(f"error parsing {path}: {msg}", file=sys.stderr)
    if errors and fatal:
        raise SystemExit(1)
    if not parsed:
        raise SystemExit("error: no movements found")
    if failure is not None:
        raise failure
    return result


def _run_config(command: str, args, extra: dict) -> dict:
    """What produced the run: the command, its corpus arguments and ``extra``."""
    return {
        "command": command,
        "version": __version__,
        "corpus": args.corpus,
        "manifest": args.manifest,
        "m_lengths": list(args.m_lengths),
        "threshold_reading": args.threshold_reading,
        "skip_bad": args.skip_bad,
        **extra,
    }


def cmd_extract(args) -> int:
    # with --dump-movements, each movement's dump is kept by its file name:
    # its source file's name plus ".json"; a name taken twice stops the
    # command once the extraction has succeeded, before anything is written
    dumps, clashes = {}, []

    def dump(mv):
        path = mv.meta.source_path
        name = f"{Path(path).name}.json"
        if name in dumps:
            clashes.append(
                f"error: --dump-movements would write both {dumps[name][0]} "
                f"and {path} to movements/{name}"
            )
        else:
            dumps[name] = (path, movement_to_json(mv))
        return mv

    def consume(movements):
        if args.dump_movements:
            movements = map(dump, movements)
        return extract_all(
            movements, SegmentConfig(args.m_lengths), threshold_reading=args.threshold_reading
        )

    matrix, _, thresholds = _corpus_pass(args, consume)
    if clashes:
        raise SystemExit(clashes[0])
    out = _out_dir(args)
    matrix.to_csv(out / "features.csv", out / "movement_meta.csv")
    _write_json(out / "thresholds.json", thresholds.to_json())
    if args.dump_movements:
        dump_dir = out / "movements"
        dump_dir.mkdir(exist_ok=True)
        for name, (_, payload) in dumps.items():
            _write_json(dump_dir / name, payload)
    _write_json(out / "run_config.json", _run_config("extract", args, {}))
    print(f"extracted {matrix.n} movements x {matrix.p} features -> {out / 'features.csv'}")
    return 0


def _inputs(args, pool: bool) -> tuple[FeatureMatrix, DevelopmentSdPool | None]:
    """The command's feature matrix and, if ``pool``, the corpus's
    development pool.  A matrix from --features/--meta is read first, so
    that a wrong CSV argument stops the command before the corpus is
    parsed, and the pool is then built alone; otherwise both come from one
    extraction pass over the corpus."""
    corpus = args.corpus and args.manifest
    if pool and not corpus:
        raise SystemExit("error: --leakage-audit needs --corpus/--manifest")
    if args.features and not args.meta:
        raise SystemExit("error: --meta is required with --features")
    if not (args.features or corpus):
        raise SystemExit("error: provide --features/--meta or --corpus/--manifest")
    seg = SegmentConfig(args.m_lengths)
    if not args.features:
        extraction = _corpus_pass(
            args, lambda mvs: extract_all(mvs, seg, threshold_reading=args.threshold_reading)
        )
        return extraction.matrix, extraction.pool if pool else None
    matrix = FeatureMatrix.from_csv(args.features, args.meta)
    if not pool:
        return matrix, None
    return matrix, _corpus_pass(
        args, lambda mvs: build_development_pool(mvs, seg, args.threshold_reading)
    )


def _cv_config(args) -> CVConfig:
    """The flags given over the preset over CVConfig's defaults; without
    ``--seed`` the seed comes from $QUARTET_ATTRIB_SEED when it is set, and
    the prior scale factor falls back to 0.6."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    env = os.environ.get(SEED_ENV)
    if "seed" not in given and env:
        try:
            given["seed"] = int(env)
        except ValueError:
            raise ValueError(f"${SEED_ENV} must be an integer, not {env!r}") from None
    settings = {**PRESETS.get(args.preset, {}), **given}
    names = {f.name for f in fields(CVConfig)} & settings.keys()
    return CVConfig(
        prior=PriorConfig(scale_factor=settings.get("xi", 0.6)),
        **{k: settings[k] for k in names},
    )


def _percent(x: float) -> str:
    return "nan" if math.isnan(x) else f"{100.0 * x:.2f}%"


def _print_cv_summary(result: CVResult) -> None:
    print(f"scheme: {result.scheme}  movements: {result.n}  folds: {len(result.folds)}")
    print(f"accuracy: {_percent(result.accuracy)}")
    print(
        f"per-class accuracy: Haydn {_percent(result.class_accuracy(1))}, "
        f"Mozart {_percent(result.class_accuracy(0))}"
    )
    cm = result.confusion
    print("confusion matrix (rows observed, columns predicted; Mozart, Haydn):")
    print(f"  observed Mozart: {cm[0][0]:4d} {cm[0][1]:4d}")
    print(f"  observed Haydn:  {cm[1][0]:4d} {cm[1][1]:4d}")
    failed = [f.fold_id for f in result.folds if f.failed]
    if failed:
        print(f"failed folds ({len(failed)}): {', '.join(failed)}")


def cmd_cv(args) -> int:
    config = _cv_config(args)
    matrix, pool = _inputs(args, pool=args.leakage_audit)
    result = run_cv(matrix, config, development_pool=pool)
    out = _out_dir(args)
    _write_json(out / "cv_result.json", result.to_json())
    write_fold_csv(result, out / "folds.csv")
    write_probability_csv(result, out / "probabilities.csv")
    write_stability_csv(selection_stability(result), out / "stability.csv")
    run = {"cv": result.config, "features": args.features, "meta": args.meta}
    _write_json(out / "run_config.json", _run_config("cv", args, run))
    _print_cv_summary(result)
    return 0


def render_report(payload: dict) -> str:
    """Human-readable coefficient table and goodness-of-fit sweep; a null
    number, as model.json writes NaN, reads as NaN."""
    require_keys(payload, ("n", "selection", "table", "hosmer", "hosmer_median_p"),
                 "a model report")
    require_keys(payload["selection"], ("selected", "bic"), "a model report's selection")
    lines = []
    lines.append(f"Composer model on {payload['n']} movements")
    lines.append(f"selected features: {len(payload['selection']['selected'])}  "
                 f"BIC: {json_float(payload['selection']['bic']):.6g}")
    lines.append("")
    lines.append(f"{'Category':<16}{'Feature':<58}{'Estimate':>12}{'Std.Err':>10}{'p-value':>12}")
    for row in payload["table"]:
        lines.append(
            f"{row['category']:<16}{row['feature']:<58}"
            f"{json_float(row['estimate']):>12.4g}{json_float(row['se']):>10.3g}"
            f"{json_float(row['p_value']):>12.3g}"
        )
    lines.append("")
    hosmer = payload["hosmer"]
    if hosmer:
        gs = [h["g"] for h in hosmer]
        ps = [json_float(h["p_value"]) for h in hosmer]
        lines.append(
            f"Hosmer-Lemeshow sweep g={min(gs)}..{max(gs)}: "
            f"median p = {json_float(payload['hosmer_median_p']):.4f}, min p = {min(ps):.4f}"
        )
    else:
        lines.append("Hosmer-Lemeshow sweep: no feasible group count")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    config = _cv_config(args)
    matrix, _ = _inputs(args, pool=False)
    report = fit_full_model(matrix, config)
    out = _out_dir(args)
    payload = report.to_json()
    _write_json(out / "model.json", payload)
    text = render_report(payload)
    (out / "report.txt").write_text(text, encoding="utf-8")
    run = {"cv": report.config, "features": args.features, "meta": args.meta}
    _write_json(out / "run_config.json", _run_config("fit", args, run))
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        payload = json.load(fh)
    text = render_report(payload)
    if args.out:
        out = _out_dir(args)
        (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_compare(args) -> int:
    with open(args.run_a, encoding="utf-8") as fh:
        a = CVResult.from_json(json.load(fh))
    with open(args.run_b, encoding="utf-8") as fh:
        b = CVResult.from_json(json.load(fh))
    report = compare_runs(a, b)
    print(f"movements compared: {report.n}")
    for head, pcts in (("probability (a vs b): ", report.probability),
                       ("class (a vs b):       ", report.class_)):
        print(head + "  ".join(f"{k.removesuffix('_pct')} {v:.2f}%" for k, v in pcts.items()))
    print(f"accuracy: a {_percent(report.accuracy_a)}  b {_percent(report.accuracy_b)}")
    if args.out:
        out = _out_dir(args)
        _write_json(out / "compare.json", report.to_json())
    return 0


def _add_corpus_args(p: argparse.ArgumentParser, required: bool) -> None:
    g = p.add_argument_group("corpus")
    g.add_argument("--corpus", required=required, help="corpus root with **kern files")
    g.add_argument("--manifest", required=required, help="corpus manifest CSV")
    # parsed here, so that a bad value stops the command before it writes anything
    g.add_argument("--m-lengths", type=_parse_lengths, default=DEFAULT_SEGMENT_LENGTHS)
    g.add_argument("--threshold-reading", choices=THRESHOLD_READINGS, default="prose")
    g.add_argument("--skip-bad", action="store_true", help="skip unparseable movements")


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", help="feature CSV produced by extract")
    p.add_argument("--meta", help="movement metadata CSV produced by extract")
    _add_corpus_args(p, required=False)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--xi", type=float, help="prior scale factor (default 0.6)")
    p.add_argument("--restarts", type=int, help=f"ICM restarts (default {CVConfig.restarts})")
    p.add_argument("--seed", type=int, help=f"RNG seed (falls back to ${SEED_ENV}, then 0)")
    p.add_argument("--scope", dest="feature_scope", choices=MODES["feature_scope"])
    p.add_argument("--bic", dest="bic_form", choices=MODES["bic_form"],
                   help=f"BIC penalty form (default {CVConfig.bic_form})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartet-attrib",
        description="Haydn/Mozart string-quartet attribution from **kern scores",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse a corpus and write the feature matrix")
    _add_corpus_args(p, required=True)
    p.add_argument("--dump-movements", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("cv", help="cross-validated classification")
    _add_matrix_args(p)
    _add_model_args(p)
    p.add_argument("--scheme", choices=MODES["scheme"])
    p.add_argument("--cutoff", dest="cutoff_policy", choices=MODES["cutoff_policy"])
    p.add_argument("--filter", dest="filter_mode", choices=MODES["filter_mode"])
    p.add_argument("--leakage-audit", action="store_true",
                   help="recompute development thresholds per training fold")
    p.add_argument("--jobs", dest="n_jobs", type=int, metavar="JOBS")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("fit", help="fit the full-data model with diagnostics")
    _add_matrix_args(p)
    _add_model_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="re-render a stored model report")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="agreement between two CV runs")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
