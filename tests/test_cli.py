import codecs
import json
import os
import subprocess
import sys
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

    def test_byte_order_marks_are_read_past(self, tmp_path):
        # as spreadsheet programs save "CSV UTF-8"
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=5)
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        args = ["extract", "--corpus", str(corpus), "--m-lengths", "8"]
        assert main([*args, "--manifest", str(manifest), "--out", str(plain)]) == 0
        for path in (manifest, corpus / "mq1_1.krn"):
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main([*args, "--manifest", str(manifest), "--out", str(marked)]) == 0
        csvs = ("features.csv", "movement_meta.csv")
        for name in csvs:
            assert (marked / name).read_bytes() == (plain / name).read_bytes()
            path = marked / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        want = FeatureMatrix.from_csv(*(plain / name for name in csvs))
        got = FeatureMatrix.from_csv(*(marked / name for name in csvs))
        assert got.rows == want.rows and got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()

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

    def test_each_bad_movement_named_once_on_stderr(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, seed=7)
        (corpus / "broken.krn").write_text("**kern\t**kern\n*-\t*-\n", encoding="utf-8")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("broken.krn,1,hq9,set9,1\nabsent.krn,0,mq9,set9,1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "quartet_attrib.cli", "extract", "--corpus", str(corpus),
             "--manifest", str(manifest), "--m-lengths", "8", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1
        for name in ("broken.krn", "absent.krn"):
            named = [ln for ln in run.stderr.splitlines() if name in ln]
            assert len(named) == 1 and named[0].startswith(f"error parsing {name}: "), run.stderr

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

    def test_dump_movements_with_one_name_for_two_files_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, n_quartets=1, seed=8)
        text = manifest.read_text()
        for sub, old in (("a", "mq1_1.krn"), ("b", "hq1_1.krn")):
            (corpus / sub).mkdir()
            (corpus / old).rename(corpus / sub / "1.krn")
            text = text.replace(old, f"{sub}/1.krn")
        manifest.write_text(text)
        out = tmp_path / "out"
        args = ["--corpus", str(corpus), "--manifest", str(manifest), "--m-lengths", "8"]
        rc = main(["extract", *args, "--dump-movements", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a/1.krn" in err and "b/1.krn" in err
        assert not out.exists()
        assert main(["extract", *args, "--out", str(out)]) == 0  # no dumps, no clash


class TestCorpusErrors:
    """What a bad corpus prints: the parse errors first, then at most one
    more message, however the bad files and the failing movement are
    ordered in the manifest."""

    BROKEN = "**kern\t**kern\n*-\t*-\n"

    def corpus(self, tmp_path, extra_rows):
        corpus = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(corpus, n_quartets=1, seed=9)
        (corpus / "broken.krn").write_text(self.BROKEN, encoding="utf-8")
        # a movement whose lower three voices hold only rests
        (corpus / "rests.krn").write_text(
            synth.melody_kern([["4c", "4d", "4e", "4f"]] * 3), encoding="utf-8"
        )
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.writelines(row + "\n" for row in extra_rows)
        return ["--corpus", str(corpus), "--manifest", str(manifest), "--m-lengths", "8"]

    def test_a_voice_too_long_for_float_durations_is_a_parse_error(self, tmp_path, capsys):
        # a Cello note of 10**400 whole notes would overflow the duration floats
        args = self.corpus(tmp_path, ["long.krn,1,hq9,set9,1"])
        meter, end = "\t".join(["*M4/4"] * 4), "\t".join(["*-"] * 4)
        note = "1%1" + "0" * 400 + "c\t4c\t4c\t4c"
        text = f"**kern\t**kern\t**kern\t**kern\n{meter}\n{note}\n{end}\n"
        (Path(args[1]) / "long.krn").write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["extract", *args, "--dump-movements", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error parsing long.krn: line 3: voice lasts 10**100 bars or more\n"
        )
        assert not out.exists()

    def test_manifest_row_with_a_bad_movement_number_names_its_line(self, tmp_path, capsys):
        args = self.corpus(tmp_path, ["broken.krn,1,hq9,set9,x"])
        manifest = args[3]
        assert main(["extract", *args, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: manifest {manifest} line 6: invalid literal for int() with base 10: 'x'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_manifest_row_with_an_unknown_composer_names_its_line(self, tmp_path, capsys):
        args = self.corpus(tmp_path, ["rests.krn,0,mq9,set9,1", "broken.krn,Bach,hq9,set9,1"])
        manifest = args[3]
        assert main(["extract", *args, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: manifest {manifest} line 7: unknown composer label 'Bach'\n"
        )

    @pytest.mark.parametrize("skip_bad", [False, True], ids=["strict", "skip-bad"])
    def test_empty_voice_names_its_movement(self, tmp_path, capsys, skip_bad):
        args = self.corpus(tmp_path, ["rests.krn,0,mq9,set9,1"])
        flags = ["--skip-bad"] if skip_bad else []
        assert main(["extract", *args, *flags, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: rests.krn: voice Violin2 has no notes\n"

    @pytest.mark.parametrize("skip_bad", [False, True], ids=["strict", "skip-bad"])
    @pytest.mark.parametrize("rests_first", [True, False], ids=["rests-first", "broken-first"])
    def test_parse_errors_come_first_and_name_every_bad_file(
        self, tmp_path, capsys, skip_bad, rests_first
    ):
        rows = ["rests.krn,0,mq9,set9,1", "broken.krn,1,hq9,set9,1", "absent.krn,1,hq9,set9,2"]
        if not rests_first:
            rows = rows[1:] + rows[:1]
        args = self.corpus(tmp_path, rows)
        flags = ["--skip-bad"] if skip_bad else []
        out = tmp_path / "o"
        assert main(["extract", *args, *flags, "--dump-movements", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        named = [line.split(":")[0] for line in err]
        assert named == ["error parsing broken.krn", "error parsing absent.krn"] + (
            ["error"] if skip_bad else []
        )
        if skip_bad:
            assert err[-1] == "error: rests.krn: voice Violin2 has no notes"
        assert not out.exists()

    @pytest.mark.parametrize("skip_bad", [False, True], ids=["strict", "skip-bad"])
    def test_all_bad_corpus(self, tmp_path, capsys, skip_bad):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "broken.krn").write_text(self.BROKEN, encoding="utf-8")
        manifest = corpus / "manifest.csv"
        manifest.write_text(
            "path,composer,quartet_id,set_id,movement_number\n"
            "broken.krn,0,q1,,1\nabsent.krn,1,q2,,1\n",
            encoding="utf-8",
        )
        flags = ["--skip-bad"] if skip_bad else []
        for command in (["extract"], ["cv", "--leakage-audit", "--restarts", "1"]):
            rc = main([*command, "--corpus", str(corpus), "--manifest", str(manifest), *flags,
                       "--out", str(tmp_path / "o")])
            assert rc == 1
            err = capsys.readouterr().err.splitlines()
            assert [line.split(":")[0] for line in err[:2]] == [
                "error parsing broken.krn", "error parsing absent.krn"
            ]
            assert err[2:] == (["error: no movements found"] if skip_bad else [])
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("xi", ["nan", "inf"])
    def test_non_finite_prior_scale_fails_before_any_fold(self, tmp_path, capsys, xi):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "x"
        args = ["--features", str(fp), "--meta", str(mp), "--xi", xi, "--out", str(out)]
        for command in ("cv", "fit"):
            assert main([command, *args]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: prior scales must be finite and positive"), err
        assert not out.exists()

    @pytest.mark.parametrize("filt", ["per-fold", "global"])
    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "the matrix has no rows, so there is no fold to run"),
            (1, "fold 'mv0.krn' trains on 0 of 1 rows; every training fold needs at least two"),
            (2, "fold 'mv0.krn' trains on 1 of 2 rows; every training fold needs at least two"),
        ],
    )
    def test_too_few_rows_fail_before_any_fold(self, tmp_path, capsys, filt, n, message):
        """Feature CSVs of 0 rows (a header alone), 1 row and 2 rows."""
        fp, mp = toy_feature_csvs(tmp_path, n=n, p=2)
        out = tmp_path / "x"
        args = ["--features", str(fp), "--meta", str(mp), "--filter", filt, "--out", str(out)]
        assert main(["cv", *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fail_before_any_fold(self, tmp_path, capsys, jobs):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "x"
        args = ["--features", str(fp), "--meta", str(mp), "--jobs", jobs, "--out", str(out)]
        assert main(["cv", *args]) == 1
        assert capsys.readouterr().err == "error: n_jobs must be at least 1\n"
        assert not out.exists()


class TestFitAndReport:
    @pytest.mark.parametrize(
        "flag",
        [["--cutoff", "tuned"], ["--filter", "per-fold"], ["--leakage-audit"], ["--jobs", "0"]],
        ids=lambda flag: flag[0],
    )
    def test_fit_rejects_the_cv_only_flags(self, tmp_path, capsys, flag):
        fp, mp = toy_feature_csvs(tmp_path)
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--features", str(fp), "--meta", str(mp), *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert not out.exists()

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

    def test_fit_records_only_the_settings_it_reads(self, tmp_path):
        fp, mp = toy_feature_csvs(tmp_path, n=20)
        out = tmp_path / "fit"
        args = ["--features", str(fp), "--meta", str(mp), "--preset", "hm285"]
        assert main(["fit", *args, "--restarts", "2", "--out", str(out)]) == 0
        fields = {"feature_scope", "prior", "seed", "restarts", "bic_form"}
        config = json.loads((out / "model.json").read_text())["config"]
        assert config.keys() == fields
        assert config["restarts"] == 2 and config["prior"]["scale_factor"] == 0.6
        assert json.loads((out / "run_config.json").read_text())["cv"] == config

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


    def test_report_and_compare_name_the_keys_a_wrong_file_lacks(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        args = ["--features", str(fp), "--meta", str(mp), "--restarts", "2", "--out"]
        assert main(["cv", *args, str(tmp_path / "cv")]) == 0
        assert main(["fit", *args, str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        cv_result, model = tmp_path / "cv" / "cv_result.json", tmp_path / "fit" / "model.json"
        out = tmp_path / "out"
        assert main(["report", "--model", str(cv_result), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: not a model report "
            "(missing keys: n, selection, table, hosmer, hosmer_median_p)\n"
        )
        assert main(["compare", str(model), str(model), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: not a CV result (missing keys: scheme, folds)\n"
        assert not out.exists()


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

    def test_meta_without_composer_column_fails_with_an_error(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        header, *rows = [line.split(",") for line in mp.read_text().splitlines()]
        j = header.index("composer")
        mp.write_text("\n".join(",".join(r[:j] + r[j + 1:]) for r in [header, *rows]) + "\n")
        rc = main(["cv", "--features", str(fp), "--meta", str(mp), *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {mp} is missing columns: ['composer']\n"
        )
        assert not (tmp_path / "o" / "cv_result.json").exists()

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

    def test_blank_lines_in_the_feature_csv_are_skipped(self, tmp_path):
        _, csvs, _ = self.corpus_and_csvs(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["cv", *csvs, *self.MODEL, "--out", str(a)]) == 0
        features = Path(csvs[1])
        header, first, *rows = features.read_text().splitlines()
        features.write_text("\n".join([header, "", first, *rows]) + "\n\n")
        assert main(["cv", *csvs, *self.MODEL, "--out", str(b)]) == 0
        assert (a / "cv_result.json").read_bytes() == (b / "cv_result.json").read_bytes()

    def test_empty_feature_csv_fails_with_an_error(self, tmp_path, capsys):
        _, csvs, _ = self.corpus_and_csvs(tmp_path)
        Path(csvs[1]).write_text("")
        rc = main(["cv", *csvs, *self.MODEL, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: feature CSV {csvs[1]} is empty\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_meta_rows_fail(self, tmp_path, capsys):
        fp, mp = toy_feature_csvs(tmp_path)
        header, first, *rows = mp.read_text().splitlines()
        path, composer, *rest = first.split(",")
        relabelled = ",".join([path, str(1 - int(composer)), *rest])
        mp.write_text("\n".join([header, first, relabelled, *rows]) + "\n")
        rc = main(["cv", "--features", str(fp), "--meta", str(mp), *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: manifest {mp} line 3: duplicate path {path!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("composer", "2", "unknown composer label '2'"),
            ("movement_number", "x", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_meta_row_that_does_not_read_names_its_line(
        self, tmp_path, capsys, column, value, message
    ):
        fp, mp = toy_feature_csvs(tmp_path)
        header, *rows = [line.split(",") for line in mp.read_text().splitlines()]
        rows[2][header.index(column)] = value
        mp.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        rc = main(["cv", "--features", str(fp), "--meta", str(mp), *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: manifest {mp} line 4: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_leakage_audit_features_need_meta(self, tmp_path, capsys):
        src, csvs, _ = self.corpus_and_csvs(tmp_path)
        rc = main(["cv", "--leakage-audit", *src, *csvs[:2], *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--meta is required" in capsys.readouterr().err

    def test_leakage_audit_reports_missing_meta_before_parsing(self, tmp_path, capsys):
        src, csvs, manifest = self.corpus_and_csvs(tmp_path)
        (manifest.parent / "broken.krn").write_text("**kern\t**kern\n*-\t*-\n")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("broken.krn,1,hq9,set9,1\n")
        rc = main(["cv", "--leakage-audit", *src, *csvs[:2], *self.MODEL,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--meta is required" in err and "error parsing" not in err

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
