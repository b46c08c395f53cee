import json
from pathlib import Path

import numpy as np
import pytest

import synth
from quartet_attrib.cli import main
from quartet_attrib.features import FeatureMatrix, FeatureName
from quartet_attrib.score import Composer


def toy_feature_csvs(tmp_path, n=10, p=4, quartet_size=2, seed=50):
    rng = np.random.default_rng(seed)
    y = np.array([(i // quartet_size) % 2 for i in range(n)])
    X = rng.normal(size=(n, p))
    X[:, 0] = (y * 2 - 1) * 2.5 + rng.normal(scale=0.4, size=n)
    rows = tuple(
        synth.make_meta(
            path=f"mv{i}.krn",
            composer=Composer(y[i]),
            quartet=f"q{i // quartet_size}",
            movement=i % quartet_size + 1,
        )
        for i in range(n)
    )
    cols = tuple(FeatureName("basic", f"col{j}") for j in range(p))
    matrix = FeatureMatrix(rows=rows, columns=cols, values=X)
    fp, mp = tmp_path / "features.csv", tmp_path / "meta.csv"
    matrix.to_csv(fp, mp)
    return fp, mp


class TestExtract:
    def test_end_to_end(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=5)
        out = tmp_path / "out"
        rc = main(
            [
                "extract",
                "--corpus",
                str(corpus),
                "--manifest",
                str(manifest),
                "--m-lengths",
                "8,10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        header = (out / "features.csv").read_text().splitlines()[0]
        ncols = len(header.split(",")) - 1
        assert ncols == 22 + (176 + 72) + 80 + 96 + 80
        assert (out / "thresholds.json").exists()
        assert (out / "movement_meta.csv").exists()
        assert json.loads((out / "run_config.json").read_text())["command"] == "extract"

    def test_deterministic_outputs(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=6)
        args = ["extract", "--corpus", str(corpus), "--manifest", str(manifest), "--m-lengths", "8"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()
        assert (out1 / "thresholds.json").read_bytes() == (out2 / "thresholds.json").read_bytes()

    def test_empty_corpus_fails(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.csv").write_text(
            "path,composer,quartet_id,set_id,movement_number\n", encoding="utf-8"
        )
        rc = main(
            [
                "extract",
                "--corpus",
                str(corpus),
                "--manifest",
                str(corpus / "manifest.csv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc != 0

    def test_bad_file_needs_skip_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=7)
        (corpus / "broken.krn").write_text("**kern\t**kern\n*-\t*-\n", encoding="utf-8")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("broken.krn,1,hq9,set9,1\n")
        base = ["extract", "--corpus", str(corpus), "--manifest", str(manifest), "--m-lengths", "8"]
        rc = main(base + ["--out", str(tmp_path / "fail")])
        assert rc != 0
        assert "broken.krn" in capsys.readouterr().err
        rc = main(base + ["--skip-bad", "--out", str(tmp_path / "ok")])
        assert rc == 0
        rows = (tmp_path / "ok" / "features.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + 8 good movements

    def test_dump_movements(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, n_quartets=1, seed=8)
        out = tmp_path / "out"
        rc = main(
            [
                "extract",
                "--corpus",
                str(corpus),
                "--manifest",
                str(manifest),
                "--m-lengths",
                "8",
                "--dump-movements",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        dumps = list((out / "movements").glob("*.json"))
        assert len(dumps) == 4


class TestCV:
    def test_cv_from_feature_csv(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "cv"
        rc = main(
            [
                "cv",
                "--features",
                str(fp),
                "--meta",
                str(mp),
                "--restarts",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "accuracy:" in text and "confusion matrix" in text
        payload = json.loads((out / "cv_result.json").read_text())
        assert payload["scheme"] == "loo"
        assert len(payload["folds"]) == 10
        assert (out / "folds.csv").exists()
        assert (out / "probabilities.csv").exists()
        assert (out / "stability.csv").exists()

    def test_seed_repeat_identical(self, tmp_path):
        fp, mp = toy_feature_csvs(tmp_path)
        args = ["cv", "--features", str(fp), "--meta", str(mp), "--restarts", "2", "--seed", "7"]
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert (o1 / "cv_result.json").read_bytes() == (o2 / "cv_result.json").read_bytes()
        assert (o1 / "folds.csv").read_bytes() == (o2 / "folds.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        fp, mp = toy_feature_csvs(tmp_path)
        monkeypatch.setenv("QUARTET_ATTRIB_SEED", "7")
        o1 = tmp_path / "env"
        assert main(["cv", "--features", str(fp), "--meta", str(mp), "--restarts", "2", "--out", str(o1)]) == 0
        cfg = json.loads((o1 / "run_config.json").read_text())
        assert cfg["cv"]["seed"] == 7

    def test_loqo_scheme(self, tmp_path):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "loqo"
        rc = main(
            [
                "cv",
                "--features",
                str(fp),
                "--meta",
                str(mp),
                "--scheme",
                "loqo",
                "--restarts",
                "2",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "cv_result.json").read_text())
        assert len(payload["folds"]) == 5

    def test_loqo_without_quartets_fails(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        text = mp.read_text().replace(",q0,", ",,").replace(",q1,", ",,")
        text = text.replace(",q2,", ",,").replace(",q3,", ",,").replace(",q4,", ",,")
        mp.write_text(text, encoding="utf-8")
        rc = main(
            ["cv", "--features", str(fp), "--meta", str(mp), "--scheme", "loqo", "--out", str(tmp_path / "x")]
        )
        assert rc != 0

    def test_preset_policies_recorded(self, tmp_path):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "preset"
        rc = main(
            [
                "cv",
                "--features",
                str(fp),
                "--meta",
                str(mp),
                "--preset",
                "hm107",
                "--restarts",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        cfg = json.loads((out / "run_config.json").read_text())["cv"]
        assert cfg["cutoff_policy"] == "fixed"
        assert cfg["filter_mode"] == "global"
        assert cfg["prior"]["scale_factor"] == 0.6

    def test_missing_inputs_fail(self, tmp_path):
        rc = main(["cv", "--out", str(tmp_path / "x")])
        assert rc != 0

    def test_zero_restarts_fail_before_any_fold(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "x"
        args = ["--features", str(fp), "--meta", str(mp), "--restarts", "0", "--out", str(out)]
        for command in ("cv", "fit"):
            assert main([command, *args]) == 1
            assert capsys.readouterr().err == "error: restarts must be at least 1\n"
        assert not out.exists()


class TestFitAndReport:
    def test_fit_writes_model_and_report(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path, n=30)
        out = tmp_path / "fit"
        rc = main(
            [
                "fit",
                "--features",
                str(fp),
                "--meta",
                str(mp),
                "--restarts",
                "3",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "(Intercept)" in text
        payload = json.loads((out / "model.json").read_text())
        assert payload["table"][0]["feature"] == "(Intercept)"
        assert (out / "report.txt").exists()

    def test_report_regeneration_byte_identical(self, tmp_path):
        fp, mp = toy_feature_csvs(tmp_path, n=30)
        out = tmp_path / "fit"
        assert (
            main(
                [
                    "fit",
                    "--features",
                    str(fp),
                    "--meta",
                    str(mp),
                    "--restarts",
                    "2",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        out2 = tmp_path / "report"
        rc = main(["report", "--model", str(out / "model.json"), "--out", str(out2)])
        assert rc == 0
        assert (out / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


class TestCompare:
    def test_compare_two_runs(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["cv", "--features", str(fp), "--meta", str(mp), "--restarts", "2"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--scheme", "loqo", "--seed", "1", "--out", str(b)]) == 0
        out = tmp_path / "cmp"
        rc = main(
            ["compare", str(a / "cv_result.json"), str(b / "cv_result.json"), "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "probability (a vs b)" in text
        payload = json.loads((out / "compare.json").read_text())
        assert payload["n"] == 10

    def test_identical_runs_full_agreement(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        a = tmp_path / "a"
        base = ["cv", "--features", str(fp), "--meta", str(mp), "--restarts", "2", "--seed", "1"]
        assert main(base + ["--out", str(a)]) == 0
        rc = main(["compare", str(a / "cv_result.json"), str(a / "cv_result.json")])
        assert rc == 0
        assert "equal 100.00%" in capsys.readouterr().out


class TestExtractCvChain:
    def test_extract_then_cv(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=9)
        out = tmp_path / "x"
        assert (
            main(
                [
                    "extract",
                    "--corpus",
                    str(corpus),
                    "--manifest",
                    str(manifest),
                    "--m-lengths",
                    "8",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        cv_out = tmp_path / "cv"
        rc = main(
            [
                "cv",
                "--features",
                str(out / "features.csv"),
                "--meta",
                str(out / "movement_meta.csv"),
                "--restarts",
                "1",
                "--seed",
                "1",
                "--out",
                str(cv_out),
            ]
        )
        assert rc == 0
        payload = json.loads((cv_out / "cv_result.json").read_text())
        assert len(payload["folds"]) == 8

    def test_cv_leakage_audit_from_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, n_quartets=1, seed=10)
        out = tmp_path / "audit"
        rc = main(
            [
                "cv",
                "--corpus",
                str(corpus),
                "--manifest",
                str(manifest),
                "--m-lengths",
                "8",
                "--leakage-audit",
                "--restarts",
                "1",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["cv"]["leakage_audit"] is True


class TestCvEntryPoints:
    """cv from an extracted feature CSV must be the same run as cv from the
    corpus, and a leakage audit must read a CSV that matches its corpus."""

    M = ["--m-lengths", "8"]
    MODEL = ["--restarts", "1", "--seed", "3", "--scope", "reduced"]

    def corpus_and_csvs(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_styled_corpus(corpus)
        out = tmp_path / "x"
        rc = main(["extract", "--corpus", str(corpus), "--manifest", str(manifest), *self.M,
                   "--out", str(out)])
        assert rc == 0
        src = ["--corpus", str(corpus), "--manifest", str(manifest), *self.M]
        csvs = ["--features", str(out / "features.csv"), "--meta", str(out / "movement_meta.csv")]
        return src, csvs, manifest

    @pytest.mark.parametrize("audit", [False, True], ids=["plain", "leakage-audit-loqo"])
    def test_cv_from_features_matches_cv_from_corpus(self, tmp_path, audit):
        src, csvs, _ = self.corpus_and_csvs(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        # an audit reads the corpus for its pool either way
        extra = ["--leakage-audit", "--scheme", "loqo"] if audit else []
        from_csvs = [*src, *csvs] if audit else csvs
        assert main(["cv", *extra, *from_csvs, *self.MODEL, "--out", str(a)]) == 0
        assert main(["cv", *extra, *src, *self.MODEL, "--out", str(b)]) == 0
        assert (a / "cv_result.json").read_bytes() == (b / "cv_result.json").read_bytes()

    def test_repeated_feature_rows_fail(self, tmp_path, capsys):
        _, csvs, _ = self.corpus_and_csvs(tmp_path)
        features = Path(csvs[1])
        header, first, *rows = features.read_text().splitlines()
        features.write_text("\n".join([header, first, *rows, first]) + "\n")
        rc = main(["cv", *csvs, *self.MODEL, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(first.split(",")[0]) in err
        assert not (tmp_path / "o" / "cv_result.json").exists()

    def test_leakage_audit_features_need_meta(self, tmp_path, capsys):
        src, csvs, _ = self.corpus_and_csvs(tmp_path)
        rc = main(["cv", "--leakage-audit", *src, *csvs[:2], *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--meta is required" in capsys.readouterr().err

    def test_leakage_audit_rejects_rows_in_another_order(self, tmp_path, capsys):
        src, csvs, manifest = self.corpus_and_csvs(tmp_path)
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([header, *reversed(rows)]) + "\n")
        rc = main(["cv", "--leakage-audit", "--scheme", "loqo", *src, *csvs, *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "same order" in capsys.readouterr().err
        assert not (tmp_path / "o" / "cv_result.json").exists()

    def test_run_config_records_the_corpus_arguments(self, tmp_path):
        src, csvs, _ = self.corpus_and_csvs(tmp_path)
        corpus_args = [*src, "--threshold-reading", "literal", "--skip-bad"]
        want = {"corpus": src[1], "manifest": src[3], "m_lengths": [8],
                "threshold_reading": "literal", "skip_bad": True}
        runs = {"extract": ([], None), "cv": (self.MODEL, None),
                "fit": ([*self.MODEL, *csvs], (csvs[1], csvs[3]))}
        for command, (extra, inputs) in runs.items():
            out = tmp_path / command
            assert main([command, *corpus_args, *extra, "--out", str(out)]) == 0
            cfg = json.loads((out / "run_config.json").read_text())
            assert cfg["command"] == command
            assert {key: cfg[key] for key in want} == want
            if command != "extract":
                assert (cfg["features"], cfg["meta"]) == (inputs or (None, None))

    def test_bad_lengths_stop_the_command_before_any_output(self, tmp_path):
        _, csvs, _ = self.corpus_and_csvs(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit):
            main(["cv", *csvs, *self.MODEL, "--m-lengths", "8,x", "--out", str(out)])
        assert not out.exists()
