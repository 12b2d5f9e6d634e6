"""End-to-end CLI behavior: files in, files out, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weapo
from weapo import (
    Dataset,
    Record,
    SyntheticSpec,
    fit_krr,
    generate,
    load_dataset,
    save_dataset,
)
from weapo.cli import build_parser, main
from weapo.metrics import UndefinedMetricError, evaluate_label_model


def write_dataset(path, vote_rows, gold=None, features=None):
    records = []
    for i, votes in enumerate(vote_rows):
        records.append(
            Record(
                id=f"r{i}",
                votes=tuple(votes),
                gold=None if gold is None else gold[i],
                features=None if features is None else tuple(features[i]),
            )
        )
    save_dataset(Dataset.from_records(records), str(path))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def informative_files(tmp_path):
    """Synthetic train/test pair with three informative functions."""
    paths = {}
    for split, seed in (("train", 11), ("test", 12)):
        out = tmp_path / f"{split}.jsonl"
        code = main(
            [
                "synth",
                "--out", str(out),
                "--n", "4000",
                "--p-plus", "0.5",
                "--tpr", "0.8,0.7,0.6",
                "--fpr", "0.2,0.15,0.1",
                "--seed", str(seed),
                "--quiet",
            ]
        )
        assert code == 0
        paths[split] = str(out)
    paths["oracle"] = paths["train"] + ".oracle.json"
    return paths


class TestSynthCommand:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = [
            "synth", "--n", "500", "--p-plus", "0.3",
            "--tpr", "0.9,0.6", "--fpr", "0.1,0.2", "--seed", "3", "--quiet",
        ]
        out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            (tmp_path / "one.jsonl.oracle.json").read_bytes()
            == (tmp_path / "two.jsonl.oracle.json").read_bytes()
        )

    def test_sidecars_written(self, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(
            ["synth", "--out", str(out), "--n", "20", "--p-plus", "0.5",
             "--tpr", "0.9", "--fpr", "0.1", "--quiet"]
        ) == 0
        spec = SyntheticSpec.load(str(out) + ".oracle.json")
        assert spec.n == 20 and spec.tpr == (0.9,)
        run = read_json(str(out) + ".run.json")
        assert run["command"] == "synth"
        assert run["config"]["out"] == str(out)

    def test_features_have_requested_width(self, tmp_path):
        out = tmp_path / "feat.jsonl"
        code = main(
            ["synth", "--out", str(out), "--n", "30", "--p-plus", "0.5",
             "--tpr", "0.9,0.8", "--fpr", "0.1,0.2",
             "--mu-pos", "1,1", "--mu-neg=-1,-1", "--sigma", "1.0", "--quiet"]
        )
        assert code == 0
        with open(out) as fh:
            lines = [json.loads(line) for line in fh]
        for row in lines[1:]:
            assert len(row["features"]) == 2

    def test_zero_records_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "x.jsonl"), "--n", "0",
             "--p-plus", "0.5", "--tpr", "0.9", "--fpr", "0.1"]
        )
        assert code == 2
        assert "--n" in capsys.readouterr().err

    def test_spec_and_inline_flags_conflict(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        SyntheticSpec(p_plus=0.5, tpr=(0.9,), fpr=(0.1,), n=10, seed=0).save(
            str(spec_path)
        )
        for flag in (["--n", "10"], ["--sigma", "1"]):
            code = main(
                ["synth", "--out", str(tmp_path / "x.jsonl"), "--spec", str(spec_path), *flag]
            )
            assert code == 2

    def test_inline_flags_must_be_complete(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "x.jsonl"), "--n", "10",
             "--p-plus", "0.5"]
        )
        assert code == 2
        assert "--spec" in capsys.readouterr().err

    def test_partial_feature_flags_rejected(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "x.jsonl"), "--n", "10",
             "--p-plus", "0.5", "--tpr", "0.9", "--fpr", "0.1",
             "--mu-pos", "1,1"]
        )
        assert code == 2

    def test_spec_file_with_seed_override(self, tmp_path, capsys):
        spec = SyntheticSpec(p_plus=0.4, tpr=(0.8, 0.6), fpr=(0.1, 0.2), n=40, seed=0)
        spec_path = tmp_path / "spec.json"
        spec.save(str(spec_path))
        bad = tmp_path / "bad.jsonl"
        assert main(
            ["synth", "--out", str(bad), "--spec", str(spec_path), "--seed", "-1", "--quiet"]
        ) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not bad.exists()
        out = tmp_path / "gen.jsonl"
        assert main(
            ["synth", "--out", str(out), "--spec", str(spec_path),
             "--seed", "7", "--quiet"]
        ) == 0
        reference = tmp_path / "ref.jsonl"
        save_dataset(
            generate(SyntheticSpec(**{**spec.to_json_dict(), "seed": 7})),
            str(reference),
        )
        assert out.read_bytes() == reference.read_bytes()


    @pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["default-seed", "seed"])
    @pytest.mark.parametrize("features", [False, True], ids=["votes", "features"])
    def test_inline_flags_write_what_the_same_spec_file_writes(self, tmp_path, features, seed):
        """Inline flags and ``--spec`` on a file of the same spec write the
        same dataset and oracle bytes, with and without features and
        ``--seed``; the file holds the default seed, 0."""
        spec = {"p_plus": 0.3, "tpr": [0.9, 0.6, 0.55], "fpr": [0.1, 0.2, 0.05], "n": 300,
                "seed": 0}
        flags = ["--n", "300", "--p-plus", "0.3", "--tpr", "0.9,0.6,0.55",
                 "--fpr", "0.1,0.2,0.05"]
        if features:
            spec["feature_spec"] = {"mu_pos": [1.5, -0.5], "mu_neg": [-1.0, 0.25], "sigma": 0.75}
            flags += ["--mu-pos=1.5,-0.5", "--mu-neg=-1.0,0.25", "--sigma", "0.75"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        inline, from_file = tmp_path / "inline.jsonl", tmp_path / "file.jsonl"
        assert main(["synth", "--out", str(inline), *flags, *seed, "--quiet"]) == 0
        assert main(["synth", "--out", str(from_file), "--spec", str(spec_path), *seed,
                     "--quiet"]) == 0
        for suffix in ("", ".oracle.json"):
            assert (Path(f"{inline}{suffix}").read_bytes()
                    == Path(f"{from_file}{suffix}").read_bytes())

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param("a,b", "not a comma-separated float list: 'a,b'", id="not-floats"),
            pytest.param(",", "empty list", id="empty"),
            pytest.param("0.5,,0.6", "empty item in '0.5,,0.6'", id="empty-item"),
            pytest.param("0.5,", "empty item in '0.5,'", id="empty-last-item"),
            pytest.param(" ,0.5", "empty item in ' ,0.5'", id="blank-first-item"),
        ],
    )
    def test_bad_float_list_is_usage_error(self, tmp_path, capsys, value, message):
        out = tmp_path / "x.jsonl"
        argv = ["synth", "--out", str(out), "--n", "10", "--p-plus", "0.5",
                f"--tpr={value}", "--fpr", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: argument --tpr: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--tpr", "1.5"], "tpr entries must lie in [0, 1]", id="tpr"),
            pytest.param(["--seed", "-1"], "seed must be non-negative", id="seed"),
            pytest.param(["--mu-pos", "1", "--mu-neg", "1,2", "--sigma", "1"],
                         "mu_pos and mu_neg must have the same dimension", id="mu-width"),
            pytest.param(["--mu-pos", "1", "--mu-neg", "1", "--sigma", "nan"],
                         "sigma must be finite and positive", id="sigma-nan"),
        ],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flags, message):
        inline = {"--n": "10", "--p-plus": "0.5", "--tpr": "0.9", "--fpr": "0.1"}
        inline.update(zip(flags[::2], flags[1::2]))
        out = tmp_path / "x.jsonl"
        argv = ["synth", "--out", str(out), *(part for kv in inline.items() for part in kv)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "seed": 0}',
                         "lacks key 'n'", id="missing-n"),
            pytest.param('[0.5, [0.9], [0.1], 10, 0]', "must be a JSON object", id="list"),
            pytest.param('{"p_plus": 0.5,', "invalid JSON (Expecting", id="invalid-json"),
            pytest.param('\xff{"p_plus": 0.5}', "not UTF-8 text (byte 0xff: invalid start byte)",
                         id="not-utf8"),
            pytest.param('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": ' + "1" * 5000 + "}",
                         "invalid JSON (Exceeds the limit (4300 digits)", id="integer-too-long"),
            pytest.param('{"p_plus": 0.5, "tpr": ' + "[" * 100_000 + "]" * 100_000 + "}",
                         "maximum recursion depth", id="nested-too-deep"),
            pytest.param('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": 10.7, "seed": 0}',
                         "'n'", id="float-n"),
            pytest.param('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": 0, "seed": 0}',
                         "key 'n' must be an integer of at least 1", id="zero-n"),
            pytest.param('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": 10, "seed": true}',
                         "'seed'", id="bool-seed"),
            pytest.param(
                '{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": 10, "seed": 0, "m": 1}',
                "unknown spec key 'm'", id="unknown-key",
            ),
            pytest.param(
                '{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "n": 10, "seed": 0, '
                '"feature_spec": {"mu_pos": [], "mu_neg": [], "sigma": 1}}',
                "feature dimension must be at least 1", id="no-feature-dimension",
            ),
        ],
    )
    def test_malformed_spec_file_is_data_error(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "spec.json"
        # Latin-1 writes each character below 256 as that one byte, so a
        # case can hold a byte that is not UTF-8.
        spec_path.write_bytes(text.encode("latin-1") + b"\n")
        out = tmp_path / "x.jsonl"
        assert main(["synth", "--out", str(out), "--spec", str(spec_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: ") and message in err
        assert "Traceback" not in err and "position" not in err
        assert not out.exists()


# The band warning of a weapo fit on ``informative_files``' train file at
# prior 0.3 and a ratio w/lambda_reg at or past the cap.
CAPPED_BAND_WARNING = (
    "warning: prior 0.3 is below the band [0.3485, 0.4898] where it changes theta; "
    "every prior below it gives the same model\n"
)
# Mean vote vector a = (1/2, 1/4); at w/lambda_reg = 1 the band is
# [a.theta(1/2), a.theta(-1/2)] = [23/64, 25/64], at the cap 4/gap = 16
# (lambda_reg = 0 too) it is [min a, max a].
BAND_ROWS = [(1, 1), (1, 0), (0, 0), (0, 0)]


def band_warning(prior, side, band):
    return (f"warning: prior {prior} is {side} the band {band} where it changes theta; "
            f"every prior {side} it gives the same model\n")


class TestFitCommand:
    def test_weapo_model_file_is_feasible(self, informative_files, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", informative_files["train"], "--model", "weapo",
             "--prior", "0.5", "--out", str(model_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(model_path)
        assert payload["model_type"] == "weapo"
        theta = np.array(payload["theta"])
        assert (theta >= -1e-12).all()
        assert abs(theta.sum() - 1.0) <= 1e-9
        assert payload["run"]["command"] == "fit"

    def test_noprior_lands_on_uniform(self, informative_files, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(
            ["fit", informative_files["train"], "--model", "weapo-noprior",
             "--out", str(model_path), "--quiet"]
        ) == 0
        theta = np.array(read_json(model_path)["theta"])
        np.testing.assert_allclose(theta, np.full(3, 1 / 3), atol=1e-6)

    @pytest.mark.parametrize(
        "flags", [["--prior-weight", "1e17"], ["--lambda-reg", "1e-320"]], ids=["w", "lambda"]
    )
    def test_extreme_weapo_ratio_fits(self, informative_files, tmp_path, capsys, flags):
        """A ratio w/lambda_reg far past the cap, or beyond the float range,
        fits as the capped ratio does: theta on the simplex, no error, and
        the band of the cap, [min a, max a], in the warning."""
        model_path = tmp_path / "model.json"
        code = main(["fit", informative_files["train"], "--model", "weapo", "--prior", "0.3",
                     *flags, "--out", str(model_path), "--quiet"])
        assert (code, capsys.readouterr().err) == (0, CAPPED_BAND_WARNING)
        theta = np.array(read_json(model_path)["theta"])
        assert (theta >= 0.0).all() and abs(theta.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "flags, prior, expected",
        [
            ([], "0.5", band_warning("0.5", "above", "[0.3594, 0.3906]")),
            ([], "0.2", band_warning("0.2", "below", "[0.3594, 0.3906]")),
            ([], "0.375", ""),
            (["--prior-weight", "16"], "0.55", band_warning("0.55", "above", "[0.2500, 0.5000]")),
            (["--lambda-reg", "0"], "0.2", band_warning("0.2", "below", "[0.2500, 0.5000]")),
            (["--lambda-reg", "0"], "0.375", ""),
        ],
        ids=["above", "below", "inside", "cap-above", "lambda0-below", "lambda0-inside"],
    )
    def test_prior_outside_the_band_warns(self, tmp_path, capsys, flags, prior, expected):
        """One stderr line, whatever --quiet says, when the prior lies
        outside the band, and none inside it."""
        train = write_dataset(tmp_path / "t.jsonl", BAND_ROWS)
        model_path = tmp_path / "m.json"
        for quiet in ([], ["--quiet"]):
            code = main(["fit", train, "--model", "weapo", "--prior", prior, *flags,
                         "--out", str(model_path), *quiet])
            assert (code, capsys.readouterr().err) == (0, expected)

    def test_overflowing_objective_names_the_flags(self, tmp_path, capsys):
        """At lambda_reg = prior_weight = 1.7e308 the objective, their
        weighted sum, overflows; the fit exits 1 naming both flags and
        writes no file. Halving both fits the same theta."""
        train = write_dataset(tmp_path / "t.jsonl", [(1, 0), (1, 0), (0, 0)])
        base = ["fit", train, "--model", "weapo", "--prior", "0.99", "--quiet"]
        model_path = tmp_path / "m.json"
        huge = ["--lambda-reg", "1.7e308", "--prior-weight", "1.7e308"]
        assert main([*base, *huge, "--out", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the weapo objective overflows float64")
        assert "--lambda-reg" in err and "--prior-weight" in err
        assert not model_path.exists()
        halved = ["--lambda-reg", "0.85e308", "--prior-weight", "0.85e308"]
        assert main([*base, *halved, "--out", str(model_path)]) == 0
        unit_path = tmp_path / "unit.json"
        assert main([*base, "--out", str(unit_path)]) == 0
        assert read_json(model_path)["theta"] == read_json(unit_path)["theta"]

    def test_ds_runs_without_prior(self, informative_files, tmp_path):
        model_path = tmp_path / "ds.json"
        assert main(
            ["fit", informative_files["train"], "--model", "ds",
             "--out", str(model_path), "--quiet"]
        ) == 0
        payload = read_json(model_path)
        assert payload["model_type"] == "ds"
        assert np.array(payload["confusion"]).shape == (3, 2, 2)

    def test_ds_warns_once_at_iteration_cap(self, informative_files, tmp_path, capsys):
        base = ["fit", informative_files["train"], "--model", "ds", "--quiet"]
        assert main(base + ["--out", str(tmp_path / "full.json")]) == 0
        assert capsys.readouterr().err == ""
        assert main(base + ["--out", str(tmp_path / "cap.json"), "--max-iters", "1"]) == 0
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("warning: ds:")
        assert "iteration cap" in err_lines[0]

    def test_weapo_without_prior_is_usage_error(self, informative_files, tmp_path, capsys):
        code = main(
            ["fit", informative_files["train"], "--model", "weapo",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "--prior" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["weapo", "fs"])
    def test_missing_prior_is_reported_before_the_train_file(self, tmp_path, capsys, model):
        code = main(
            ["fit", str(tmp_path / "nope.jsonl"), "--model", model,
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "--prior" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["mv", "weapo-noprior"])
    def test_out_of_range_prior_refused_by_every_model(self, tmp_path, capsys, model):
        train = write_dataset(tmp_path / "t.jsonl", [(1, 0), (1, 1)])
        model_path = tmp_path / "m.json"
        code = main(
            ["fit", train, "--model", model, "--prior", "1.5", "--out", str(model_path),
             "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "p_plus" in err
        assert not model_path.exists()

    def test_fs_needs_three_functions(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "two.jsonl", [(1, 0), (0, 1), (1, 1)])
        code = main(
            ["fit", train, "--model", "fs", "--prior", "0.5",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "M >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("smoothing", ["4e307", "1e308"])
    def test_ds_smoothing_that_overflows_is_refused(self, tmp_path, capsys, smoothing):
        """A smoothing whose objective overflows float64 is named, not run
        for every EM step or failed with a bare math error."""
        votes = (np.random.default_rng(0).random((50, 3)) < 0.4).astype(int)
        train = write_dataset(tmp_path / "train.jsonl", votes.tolist())
        model_path = tmp_path / "m.json"
        code = main(["fit", train, "--model", "ds", "--smoothing", smoothing,
                     "--out", str(model_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: smoothing") and "too large" in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("ds", ["--smoothing", "nan"]),
            ("ds", ["--smoothing", "inf"]),
            ("ds", ["--tol", "nan"]),
            ("ds", ["--max-iters", "-3"]),
            ("fs", ["--eps-clip", "nan"]),
            ("mv", ["--smoothing", "nan"]),
            ("mv", ["--lambda-reg", "-1"]),
        ],
    )
    def test_bad_fitting_values_write_no_file(
        self, informative_files, tmp_path, capsys, model, flags
    ):
        model_path = tmp_path / "m.json"
        code = main(
            ["fit", informative_files["train"], "--model", model, "--prior", "0.5",
             "--out", str(model_path), "--quiet", *flags]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0][2:].replace("-", "_") in err
        assert "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("eps_clip", ["0", "1e-17"])
    def test_eps_clip_that_leaves_accuracy_one_refused_before_reading(
        self, tmp_path, capsys, eps_clip
    ):
        """1 - eps_clip rounds to 1 here, an accuracy a model file may not hold."""
        model_path = tmp_path / "m.json"
        code = main(
            ["fit", str(tmp_path / "nope.jsonl"), "--model", "fs", "--prior", "0.5",
             "--eps-clip", eps_clip, "--out", str(model_path), "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps_clip") and "nope" not in err
        assert not model_path.exists()

    def test_smallest_accepted_eps_clip_writes_a_readable_model(
        self, informative_files, tmp_path
    ):
        model_path = str(tmp_path / "m.json")
        assert main(
            ["fit", informative_files["train"], "--model", "fs", "--prior", "0.5",
             "--eps-clip", "1.2e-16", "--out", model_path, "--quiet"]
        ) == 0
        assert main(["eval", model_path, informative_files["test"], "--quiet"]) == 0

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("mv", ["--max-iters", "5"]),
            ("mv", ["--lambda-reg", "3"]),
            ("mv", ["--eps-clip", "0.5"]),
            ("mv", ["--prior", "0.3"]),
            ("weapo-noprior", ["--prior", "0.3"]),
            ("weapo-noprior", ["--smoothing", "2"]),
            ("ds", ["--prior-weight", "2"]),
            ("ds", ["--eps-clip", "0.5"]),
            ("fs", ["--prior", "0.5", "--tol", "1e-3"]),
            ("weapo", ["--prior", "0.5", "--max-iters", "5"]),
            ("weapo-noprior", ["--prior-weight", "7"]),
            ("weapo-noprior", ["--lambda-reg", "5"]),
        ],
    )
    def test_flag_no_named_model_reads_is_usage_error(self, tmp_path, capsys, model, flags):
        """A fitting flag the model ignores is refused before the train
        file is read, rather than left out of the model file unnoticed."""
        model_path = tmp_path / "m.json"
        code = main(
            ["fit", str(tmp_path / "nope.jsonl"), "--model", model,
             "--out", str(model_path), "--quiet", *flags]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[-2]} applies only to")
        assert "nope" not in err
        assert not model_path.exists()

    def test_non_finite_payload_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "weapo.cli._fit_payload", lambda *args: {"model_type": "mv", "x": float("nan")}
        )
        train = write_dataset(tmp_path / "t.jsonl", [(1, 0)])
        model_path = tmp_path / "m.json"
        code = main(["fit", train, "--model", "mv", "--out", str(model_path), "--quiet"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("model", ["ds", "fs"])
    def test_meta_only_file_is_data_error(self, tmp_path, capsys, model):
        train = tmp_path / "empty.jsonl"
        train.write_text('{"meta":{"num_lfs":3}}\n')
        code = main(
            ["fit", str(train), "--model", model, "--prior", "0.5",
             "--out", str(tmp_path / "m.json"), "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no records" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_file_without_records_or_meta_line_is_data_error(self, tmp_path, capsys, text):
        train = tmp_path / "empty.jsonl"
        train.write_text(text, encoding="utf-8")
        code = main(["fit", str(train), "--model", "mv", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {train}: no records and no meta line\n"
        assert not (tmp_path / "m.json").exists()

    def test_meta_line_without_num_lfs_is_named(self, tmp_path, capsys):
        """A meta line alone fixes no vote width; the message names the
        missing key rather than claiming there is no meta line."""
        data = tmp_path / "metaonly.jsonl"
        data.write_text('{"meta":{"lf_names":["a"]}}\n')
        code = main(["compare", str(data), str(data), "--models", "mv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{data}: line 1: the meta line lacks num_lfs and no records follow" in err
        assert "Traceback" not in err

    def test_missing_train_file(self, tmp_path, capsys):
        code = main(
            ["fit", str(tmp_path / "nope.jsonl"), "--model", "mv",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1


class TestEvalCommand:
    def fit_mv(self, tmp_path, train):
        model_path = str(tmp_path / "mv.json")
        assert main(
            ["fit", train, "--model", "mv", "--out", model_path, "--quiet"]
        ) == 0
        return model_path

    def test_perfect_ranking_scores_one(self, tmp_path):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(
            tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1]
        )
        model = self.fit_mv(tmp_path, train)
        out = tmp_path / "eval.json"
        assert main(["eval", model, test, "--out", str(out), "--quiet"]) == 0
        result = read_json(out)["result"]
        assert result["roc_auc"] == 1.0
        assert result["pr_auc"] == 1.0
        assert result["n_evaluated"] == 2

    def test_uncovered_records_excluded(self, tmp_path):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(
            tmp_path / "test.jsonl",
            [(1, 1), (1, 0), (0, 0), (0, 0)],
            gold=[1, -1, 1, -1],
        )
        model = self.fit_mv(tmp_path, train)
        out = tmp_path / "eval.json"
        assert main(["eval", model, test, "--out", str(out), "--quiet"]) == 0
        assert read_json(out)["result"]["n_evaluated"] == 2

    def test_fully_uncovered_test_set(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(
            tmp_path / "test.jsonl", [(0, 0), (0, 0)], gold=[1, -1]
        )
        model = self.fit_mv(tmp_path, train)
        assert main(["eval", model, test, "--quiet"]) == 1
        assert "no covered records" in capsys.readouterr().err

    def test_width_mismatch(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(
            tmp_path / "test.jsonl", [(1, 1, 0)], gold=[1]
        )
        model = self.fit_mv(tmp_path, train)
        assert main(["eval", model, test, "--quiet"]) == 1
        assert "labeling functions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"model_type": "weapo", "theta": [0.5, 0.25, 0.25],
             "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0}},
            {"model_type": "mv", "num_lfs": 3},
            {"model_type": "ds", "class_prior": 0.5, "confusion": [[[0.5, 0.5]] * 2] * 3},
            {"model_type": "fs", "class_prior": 0.5, "accuracies": [0.5, 0.5, 0.5]},
        ],
        ids=["weapo", "mv", "ds", "fs"],
    )
    def test_width_mismatch_names_both_files(self, tmp_path, capsys, payload):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (0, 1)], gold=[1, -1])
        model = tmp_path / "m3.json"
        model.write_text(json.dumps(payload))
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model} has 3 labeling functions, {test} has 2\n"

    def test_model_file_with_unknown_config_key(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "old.json"
        model.write_text(json.dumps({
            "model_type": "weapo",
            "theta": [0.5, 0.5],
            "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0,
                       "max_iters": 5000},
        }))
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'max_iters'" in err
        assert "Traceback" not in err

    def test_missing_gold(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)])
        model = self.fit_mv(tmp_path, train)
        assert main(["eval", model, test, "--quiet"]) == 1
        assert "gold label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"model_type": "weapo", "theta": [0.9, 0.9],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0}},
             "sum to 1"),
            ({"model_type": "weapo", "theta": [0.5, 0.5, 0.0],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0}},
             "labeling functions"),
            ({"model_type": "ds", "class_prior": 0.5,
              "confusion": [[[0.5, 0.5], [2.0, -1.0]], [[0.5, 0.5], [0.5, 0.5]]]},
             r"\[0, 1\]"),
            ({"model_type": "ds", "class_prior": 0.5,
              "confusion": [[[0.5, 0.5], [0.2, 0.9]], [[0.5, 0.5], [0.5, 0.5]]]},
             "sum to 1"),
            ({"model_type": "fs", "class_prior": 1.0, "accuracies": [0.5, 0.5]},
             "class_prior"),
            ([0.5, 0.5], "one JSON object"),
            ({"model_type": "weapo", "theta": [0.5, 0.5],
              "config": {"lambda_reg": "abc", "use_prior": True, "prior_weight": 1.0}},
             "lambda_reg"),
            ({"model_type": "weapo", "theta": [0.5, 0.5],
              "config": {"lambda_reg": None, "use_prior": True, "prior_weight": 1.0}},
             "lambda_reg"),
            ({"model_type": "weapo", "theta": [0.5, 0.5],
              "config": {"lambda_reg": 1.0, "use_prior": "yes", "prior_weight": 1.0}},
             "use_prior"),
            ({"model_type": "weapo", "theta": [0.5, 0.5],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": True}},
             "prior_weight"),
            ({"model_type": "weapo", "theta": ["0.5", "0.5"],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0}},
             "theta"),
            ({"model_type": "weapo", "theta": [0.5, 0.5],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0},
              "diagnostics": [1, 2]},
             "diagnostics"),
            ({"model_type": "ds", "class_prior": 0.5,
              "confusion": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
              "diagnostics": [1, 2]},
             "diagnostics"),
            ({"model_type": "ds", "class_prior": "0.5",
              "confusion": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]},
             "class_prior"),
            ({"model_type": "fs", "class_prior": 0.5, "accuracies": ["0.5", "0.5"]},
             "accuracies"),
            ({"model_type": "mv", "num_lfs": 2.0}, "num_lfs"),
            ({"model_type": "mv", "num_lfs": 2, "lf_count": 2}, "'lf_count'"),
            ('{"model_type": "mv", "num_lfs": ' + "1" * 5000 + "}",
             r"model\.json: invalid JSON \(Exceeds the limit \(4300 digits\)"),
        ],
        ids=["weapo", "weapo-width", "ds", "ds-rows", "fs", "not-an-object",
             "lambda-reg-string", "lambda-reg-null", "use-prior-string", "prior-weight-bool",
             "theta-strings", "weapo-diagnostics-list", "ds-diagnostics-list",
             "ds-prior-string", "fs-accuracies-strings", "mv-float-num-lfs", "unknown-key",
             "integer-too-long"],
    )
    def test_invalid_model_payload(self, tmp_path, capsys, payload, message):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "model.json"
        # A string is the file's text, for what json.dumps cannot write.
        model.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert re.search(message, err)

    @pytest.mark.parametrize("model", ["weapo", "weapo-noprior", "mv", "ds", "fs"])
    def test_fitted_model_files_read_back(self, informative_files, tmp_path, capsys, model):
        model_path = str(tmp_path / "model.json")
        prior = ["--prior", "0.5"] if model in ("weapo", "fs") else []
        assert main(
            ["fit", informative_files["train"], "--model", model, "--out", model_path,
             "--quiet", *prior]
        ) == 0
        assert main(["eval", model_path, informative_files["test"], "--quiet"]) == 0
        # The same file with one key too many is refused.
        payload = read_json(model_path)
        payload["extra"] = 1
        Path(model_path).write_text(json.dumps(payload))
        assert main(["eval", model_path, informative_files["test"], "--quiet"]) == 1
        assert "'extra'" in capsys.readouterr().err

    def test_deeply_nested_model_file_is_data_error(self, tmp_path, capsys):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "model.json"
        depth = 100_000
        model.write_text(
            '{"model_type": "fs", "class_prior": 0.5, "accuracies": '
            + "[" * depth + "0.5" + "]" * depth + "}"
        )
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: invalid JSON (maximum recursion depth")
        assert "Traceback" not in err

    def test_truncated_model_file_names_the_file(self, tmp_path, capsys):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "model.json"
        model.write_text('{"model_type": ')
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: invalid JSON (Expecting value: line 1")
        assert "Traceback" not in err

    def test_deeply_nested_dataset_line_names_the_line(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        test = tmp_path / "test.jsonl"
        depth = 100_000
        test.write_text(
            '{"id":"a","votes":[1,1],"label":-1}\n'
            '{"id":"b","votes":' + "[" * depth + "1" + "]" * depth + ',"label":1}\n'
        )
        out = tmp_path / "cmp.json"
        assert main(
            ["compare", train, str(test), "--models", "mv", "--out", str(out), "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {test}: line 2: invalid JSON (maximum recursion depth")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_strict_dataset_is_data_error(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        model = self.fit_mv(tmp_path, train)
        for line, message in (
            ('{"id":"b","votes":[true,0],"label":1}', "votes must be"),
            ('{"id":"b","votes":[1,0],"label":1.0}', "label must be"),
            ('{"id":"b","votes":[1,0],"label":1,"lable":1}', "unknown record key 'lable'"),
        ):
            test = tmp_path / "test.jsonl"
            test.write_text('{"id":"a","votes":[1,1],"label":-1}\n' + line + "\n")
            assert main(["eval", model, str(test), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {test}: line 2: ") and message in err

    def test_compare_error_names_the_bad_file(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        test = tmp_path / "test.jsonl"
        test.write_text('{"id":"a","votes":[1,1],"label":-1}\n{"id":"b","votes":[1,0],"lable":1}\n')
        assert main(["compare", train, str(test), "--models", "mv", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {test}: line 2: unknown record key 'lable'\n"

    def test_non_utf8_dataset_names_the_file(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        test = tmp_path / "test.jsonl"
        test.write_bytes(b'{"id":"a","votes":[1,1],"label":-1}\n{"id":"b\xff","votes":[1,0]}\n')
        assert main(["compare", train, str(test), "--models", "mv", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {test}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"model_type": "weapo", "theta": [0.9, 0.9],
              "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0}},
             "weapo theta must sum to 1, got 1.8"),
            ({"model_type": "mv", "num_lfs": 0}, "key 'num_lfs' must be an integer of at least 1"),
            ({"model_type": "nb"}, "unknown model_type 'nb' in model file"),
            ({"model_type": ["weapo"]}, "unknown model_type ['weapo'] in model file"),
        ],
        ids=["weapo-theta", "mv-num-lfs", "unknown-type", "list-type"],
    )
    def test_payload_error_names_the_model_file(self, tmp_path, capsys, payload, message):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload))
        assert main(["eval", str(model), test, "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    def test_payload_error_comes_before_the_test_file(self, tmp_path, capsys):
        """The model file is checked in full before any dataset is read."""
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"model_type": "mv", "num_lfs": 2, "extra": 1}))
        missing = tmp_path / "missing.jsonl"
        assert main(["eval", str(model), str(missing), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {model}: unknown mv model payload key 'extra'\n"

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_test_file_without_records_is_named(self, tmp_path, capsys, command):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        test = tmp_path / "empty.jsonl"
        test.write_text('{"meta":{"num_lfs":2}}\n')
        if command == "eval":
            argv = ["eval", self.fit_mv(tmp_path, train), str(test), "--quiet"]
        else:
            argv = ["compare", train, str(test), "--models", "mv", "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {test}: the file has no records to evaluate on\n"

    def test_non_utf8_model_file_names_the_file(self, tmp_path, capsys):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "model.json"
        model.write_bytes(b'{"model_type": "mv", "num_lfs": 2, "run": "\xc3"}')
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: not UTF-8 text (byte 0xc3: ")
        assert "Traceback" not in err


class TestEndCommand:
    @pytest.fixture
    def feature_files(self, tmp_path):
        paths = {}
        for split, seed in (("train", 41), ("test", 42)):
            out = tmp_path / f"{split}.jsonl"
            code = main(
                ["synth", "--out", str(out), "--n", "600", "--p-plus", "0.4",
                 "--tpr", "0.75,0.65,0.55", "--fpr", "0.15,0.1,0.05",
                 "--mu-pos", "2,2", "--mu-neg=-1.41,-1.41", "--sigma", "1.0",
                 "--seed", str(seed), "--quiet"]
            )
            assert code == 0
            paths[split] = str(out)
        model = tmp_path / "label.json"
        assert main(
            ["fit", paths["train"], "--model", "weapo", "--prior", "0.4",
             "--out", str(model), "--quiet"]
        ) == 0
        paths["model"] = str(model)
        return paths

    def test_payload_error_names_the_model_file(self, feature_files, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({
            "model_type": "weapo", "theta": [0.9, 0.9, 0.9],
            "config": {"lambda_reg": 1.0, "use_prior": True, "prior_weight": 1.0},
        }))
        out = tmp_path / "end.json"
        assert main(
            ["end", str(model), feature_files["train"], feature_files["test"],
             "--out", str(out), "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: weapo theta must sum to 1, got {0.9 + 0.9 + 0.9!r}\n"
        assert not out.exists()

    def test_features_whose_distances_overflow_are_data_errors(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        votes = [(1, 0), (0, 1), (1, 1), (0, 0)] * 5
        gold = [1, -1] * 10
        features = rng.normal(size=(20, 2)) * 1e200
        train = write_dataset(tmp_path / "train.jsonl", votes, gold, features)
        model = tmp_path / "m.json"
        assert main(["fit", train, "--model", "mv", "--out", str(model), "--quiet"]) == 0
        assert main(["end", str(model), train, train, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {train}: features must be at most 4.74e+153 in magnitude")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_end_model_error_names_the_file(self, tmp_path, capsys, split):
        """A feature of 1e200 in only one file: the fit refuses the train
        file and the prediction the test file, and each error names it."""
        votes, gold = [(1, 0), (0, 1), (1, 1), (0, 0)] * 5, [1, -1] * 10
        features = np.random.default_rng(3).normal(size=(20, 2))
        paths = {}
        for name in ("train", "test"):
            values = features.copy()
            if name == split:
                values[7, 1] = 1e200
            paths[name] = write_dataset(tmp_path / f"{name}.jsonl", votes, gold, values)
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"model_type": "mv", "num_lfs": 2}))
        out = tmp_path / "end.json"
        argv = ["end", str(model), paths["train"], paths["test"], "--out", str(out), "--quiet"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[split]}: features must be at most 4.74e+153")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_huge_gamma_saturates_without_a_warning(self, feature_files, tmp_path):
        out = tmp_path / "end.json"
        assert main(
            ["end", feature_files["model"], feature_files["train"], feature_files["test"],
             "--gamma", "1e308", "--out", str(out), "--quiet"]
        ) == 0
        assert read_json(out)["config"]["gamma"] == 1e308

    def test_singular_system_suggests_a_ridge(self, feature_files, capsys):
        assert main(
            ["end", feature_files["model"], feature_files["train"], feature_files["test"],
             "--alpha", "0", "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "numerically singular; use alpha > 0" in err
        assert "distinct" not in err

    def test_target_too_large_is_a_data_error(self, feature_files, capsys):
        """The norms of the residual check would overflow: the fit refuses
        the targets, naming the train file, with no warning or traceback."""
        assert main(
            ["end", feature_files["model"], feature_files["train"], feature_files["test"],
             "--uncovered-target", "1e200", "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {feature_files['train']}: targets must be at most ")
        assert "Traceback" not in err

    def test_end_model_beats_chance_on_all_records(self, feature_files, tmp_path):
        out = tmp_path / "end.json"
        code = main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], "--out", str(out), "--quiet"]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["result"]["roc_auc"] > 0.8
        assert payload["result"]["n_evaluated"] == 600

    def test_hyperparameters_echoed(self, feature_files, tmp_path):
        out = tmp_path / "end.json"
        assert main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], "--alpha", "0.5", "--gamma", "0.3",
             "--out", str(out), "--quiet"]
        ) == 0
        config = read_json(out)["config"]
        assert config["alpha"] == 0.5
        assert config["gamma"] == 0.3

    def test_library_defaults_reported(self, feature_files, tmp_path):
        """Without --gamma and --alpha, end reports the values fit_krr
        chose, and giving them explicitly reproduces the same run."""
        base = ["end", feature_files["model"], feature_files["train"],
                feature_files["test"], "--quiet"]
        assert main(base + ["--out", str(tmp_path / "default.json")]) == 0
        default = read_json(tmp_path / "default.json")
        features = load_dataset(feature_files["train"]).features_matrix
        assert default["config"]["gamma"] == fit_krr(features, np.zeros(len(features))).gamma
        assert default["config"]["alpha"] == 1.0
        explicit_flags = ["--gamma", repr(default["config"]["gamma"]), "--alpha", "1.0"]
        out = str(tmp_path / "explicit.json")
        assert main(base + explicit_flags + ["--out", out]) == 0
        explicit = read_json(out)
        assert explicit["config"]["gamma"] == default["config"]["gamma"]
        assert explicit["config"]["alpha"] == default["config"]["alpha"]
        assert explicit["result"] == default["result"]
        assert not hasattr(weapo.cli, "_default_gamma")

    @pytest.mark.parametrize(
        "flags", [["--gamma", "nan"], ["--alpha", "inf"], ["--uncovered-target", "nan"]]
    )
    def test_non_finite_flags_are_data_errors(self, feature_files, capsys, flags):
        code = main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], *flags, "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "nan"], "gamma must be finite and positive"),
        (["--gamma", "0"], "gamma must be finite and positive"),
        (["--alpha", "-1"], "alpha must be finite and non-negative"),
        (["--uncovered-target", "nan"], "uncovered_target must be finite"),
    ])
    def test_bad_setting_reported_before_reading(self, tmp_path, capsys, flags, message):
        """No file is read, so the message names none: the files here do
        not exist."""
        missing = [str(tmp_path / name) for name in ("m.json", "train.jsonl", "test.jsonl")]
        assert main(["end", *missing, *flags, "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_of_memory_is_clean_error(self, feature_files, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.7 GiB")

        monkeypatch.setattr("weapo.endmodel.fit_krr", exhausted)
        code = main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_fit_over_memory_budget_is_clean_error(self, feature_files, capsys, monkeypatch):
        monkeypatch.setattr("weapo.endmodel._available_memory_bytes", lambda: 1 << 20)
        code = main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {feature_files['train']}: the exact kernel fit on N = 600 training records"
        )
        assert "GiB (the lower triangle of the N x N float64 kernel system)" in err
        assert "Traceback" not in err

    def test_train_without_features(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "train.jsonl", [(1, 1), (1, 0)])
        test = write_dataset(
            tmp_path / "test.jsonl", [(1, 1)], gold=[1], features=[(0.0,)]
        )
        model = tmp_path / "mv.json"
        assert main(
            ["fit", train, "--model", "mv", "--out", str(model), "--quiet"]
        ) == 0
        assert main(["end", str(model), train, test, "--quiet"]) == 1
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["model-train", "train-test", "features"])
    def test_width_mismatch_names_both_files(self, tmp_path, capsys, case):
        """The model, train and test files are checked against each other
        before any scoring or fit."""
        wide, narrow = [(1, 1, 0), (0, 0, 1)], [(1, 1), (0, 1)]
        two, one = [(0.0, 1.0), (1.0, 0.0)], [(0.0,), (1.0,)]
        train_votes, test_votes, test_features, expected = {
            "model-train": (narrow, wide, two, "{model} has 3 labeling functions, {train} has 2"),
            "train-test": (wide, narrow, two, "{model} has 3 labeling functions, {test} has 2"),
            "features": (wide, wide, one, "{train} has 2 features per record, {test} has 1"),
        }[case]
        model = tmp_path / "m3.json"
        model.write_text(json.dumps({"model_type": "mv", "num_lfs": 3}))
        train = write_dataset(tmp_path / "train.jsonl", train_votes, features=two)
        test = write_dataset(
            tmp_path / "test.jsonl", test_votes, gold=[1, -1], features=test_features
        )
        out = tmp_path / "end.json"
        assert main(["end", str(model), train, test, "--out", str(out), "--quiet"]) == 1
        message = expected.format(model=model, train=train, test=test)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_features_without_columns_name_the_file(self, tmp_path, capsys, split):
        paths = {}
        for name, gold in (("train", None), ("test", [1, -1])):
            width = 0 if name == split else 1
            paths[name] = write_dataset(
                tmp_path / f"{name}.jsonl", [(1, 0), (1, 1)], gold=gold,
                features=[(0.0,) * width, (1.0,) * width],
            )
        model = tmp_path / "mv.json"
        model.write_text(json.dumps({"model_type": "mv", "num_lfs": 2}))
        assert main(["end", str(model), paths["train"], paths["test"], "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths[split]}: end model needs at least one feature on every record\n"
        )

    def test_constant_targets_rejected(self, tmp_path, capsys):
        train = write_dataset(
            tmp_path / "train.jsonl",
            [(0, 0), (0, 0)],
            features=[(0.0, 1.0), (1.0, 0.0)],
        )
        test = write_dataset(
            tmp_path / "test.jsonl",
            [(1, 1)],
            gold=[1],
            features=[(0.5, 0.5)],
        )
        model = tmp_path / "mv.json"
        assert main(
            ["fit", train, "--model", "mv", "--out", str(model), "--quiet"]
        ) == 0
        assert main(["end", str(model), train, test, "--quiet"]) == 1
        assert "identical" in capsys.readouterr().err


class TestCompareCommand:
    def test_all_models_plus_oracle(self, informative_files, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "weapo,weapo-noprior,mv,ds,fs", "--prior", "0.5",
             "--oracle", informative_files["oracle"], "--out", str(out),
             "--quiet"]
        )
        assert code == 0
        rows = read_json(out)["rows"]
        assert [r["model"] for r in rows] == [
            "weapo", "weapo-noprior", "mv", "ds", "fs", "oracle",
        ]
        for row in rows:
            assert row["error"] is None
            assert 0.0 <= row["roc_auc"] <= 1.0
            assert 0.0 <= row["pr_auc"] <= 1.0
        oracle_roc = rows[-1]["roc_auc"]
        for row in rows[:-1]:
            assert oracle_roc >= row["roc_auc"] - 0.02

    def test_noprior_rows_equal_majority_vote(self, informative_files, tmp_path):
        """weapo-noprior's theta is uniform, so its scores order the patterns
        as the fraction of firing functions does, and every metric is mv's."""
        out = tmp_path / "cmp.json"
        assert main(["compare", informative_files["train"], informative_files["test"],
                     "--models", "weapo-noprior,mv", "--out", str(out), "--quiet"]) == 0
        noprior, mv = read_json(out)["rows"]
        assert noprior["error"] is None
        assert {**noprior, "model": "mv"} == mv

    def test_record_order_changes_no_row(self, informative_files, tmp_path):
        """Files whose records are permuted, ids and all, give the same rows."""
        rng = np.random.default_rng(5)
        shuffled = {}
        for split in ("train", "test"):
            data = load_dataset(informative_files[split])
            order = rng.permutation(len(data))
            shuffled[split] = str(tmp_path / f"shuffled-{split}.jsonl")
            save_dataset(Dataset(ids=tuple(data.ids[i] for i in order),
                                 votes_matrix=data.votes_matrix[order],
                                 gold=data.gold[order]), shuffled[split])
        rows = []
        for files in (informative_files, shuffled):
            out = tmp_path / "cmp.json"
            assert main(["compare", files["train"], files["test"], "--models",
                         "weapo,weapo-noprior,mv,ds,fs", "--prior", "0.5",
                         "--oracle", informative_files["oracle"], "--out", str(out),
                         "--quiet"]) == 0
            rows.append(read_json(out)["rows"])
        assert rows[0] == rows[1]

    def test_huge_prior_weight(self, informative_files, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(["compare", informative_files["train"], informative_files["test"],
                     "--models", "weapo,mv", "--prior", "0.3", "--prior-weight", "1e308",
                     "--out", str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (0, CAPPED_BAND_WARNING)
        assert [row["error"] for row in read_json(out)["rows"]] == [None, None]

    @pytest.mark.parametrize("prior, expected", [
        ("0.5", band_warning("0.5", "above", "[0.3594, 0.3906]")), ("0.375", ""),
    ], ids=["above", "inside"])
    def test_band_warning_for_the_weapo_row_only(self, tmp_path, capsys, prior, expected):
        train = write_dataset(tmp_path / "train.jsonl", BAND_ROWS)
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0), (0, 1)], gold=[1, -1, -1])
        out = tmp_path / "cmp.json"
        code = main(["compare", train, test, "--models", "weapo,weapo-noprior,mv,ds",
                     "--prior", prior, "--out", str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (0, expected)
        assert [row["error"] for row in read_json(out)["rows"]] == [None] * 4

    def test_each_file_is_compressed_once(self, informative_files, tmp_path, monkeypatch):
        calls = []
        original = weapo.data.compress_votes

        def counting(votes, gold=None):
            calls.append(np.shape(votes))
            return original(votes, gold)

        monkeypatch.setattr(weapo.data, "compress_votes", counting)
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "weapo,weapo-noprior,mv,ds,fs", "--prior", "0.5",
             "--oracle", informative_files["oracle"], "--quiet"]
        )
        assert code == 0
        assert len(calls) == 2

    def test_failing_model_reported_inline(self, tmp_path):
        train = write_dataset(
            tmp_path / "train.jsonl", [(1, 0), (0, 1), (1, 1), (0, 0)]
        )
        test = write_dataset(
            tmp_path / "test.jsonl", [(1, 0), (0, 1), (1, 1)], gold=[1, -1, 1]
        )
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", train, test, "--models", "fs,mv", "--prior", "0.5",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        rows = {r["model"]: r for r in read_json(out)["rows"]}
        assert "M >= 3" in rows["fs"]["error"]
        assert rows["fs"]["roc_auc"] is None
        assert rows["mv"]["error"] is None

    def test_ds_smoothing_that_overflows_reported_inline(self, tmp_path):
        votes = (np.random.default_rng(0).random((50, 3)) < 0.4).astype(int).tolist()
        train = write_dataset(tmp_path / "train.jsonl", votes)
        test = write_dataset(tmp_path / "test.jsonl", votes, gold=[1, -1] * 25)
        out = tmp_path / "cmp.json"
        code = main(["compare", train, test, "--models", "ds,mv", "--smoothing", "4e307",
                     "--out", str(out), "--quiet"])
        assert code == 0
        rows = {r["model"]: r for r in read_json(out)["rows"]}
        assert rows["ds"]["error"].startswith("smoothing 4e+307 is too large")
        assert rows["ds"]["roc_auc"] is None
        assert rows["mv"]["error"] is None

    @pytest.mark.parametrize("case", ["no-covered", "single-class"])
    def test_undefined_metrics_reported_per_row(self, informative_files, tmp_path, case):
        """Every model's row carries the error ``evaluate_label_model``
        raises on the records' own scores, and no metric."""
        votes = [(0, 0, 0)] * 4 if case == "no-covered" else [(1, 0, 0), (0, 1, 1), (0, 0, 0)] * 2
        gold = [1, 1, -1, 1, 1, -1][: len(votes)]
        test = write_dataset(tmp_path / "test.jsonl", votes, gold=gold)
        with pytest.raises(UndefinedMetricError) as expected:
            evaluate_label_model(np.zeros(len(gold)), np.array(votes).any(axis=1), gold)
        out = tmp_path / "cmp.json"
        code = main(["compare", informative_files["train"], test, "--models",
                     "weapo,weapo-noprior,mv,ds,fs", "--prior", "0.5", "--out", str(out),
                     "--quiet"])
        assert code == 0
        for row in read_json(out)["rows"]:
            assert row == {"model": row["model"], "roc_auc": None, "pr_auc": None,
                           "n_pos": None, "n_neg": None, "n_evaluated": None,
                           "error": str(expected.value)}

    def test_ds_warns_once_at_iteration_cap(self, informative_files, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "ds,mv", "--max-iters", "1", "--out", str(out), "--quiet"]
        )
        assert code == 0
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("warning: ds:")
        assert all(row["error"] is None for row in read_json(out)["rows"])

    def test_malformed_oracle_spec_fails_before_fitting(
        self, informative_files, tmp_path, capsys
    ):
        spec_path = tmp_path / "oracle.json"
        out = tmp_path / "cmp.json"
        for text, message in (
            (b'{"p_plus": 0.5, "tpr": [0.8, 0.7, 0.6], "fpr": [0.2, 0.15, 0.1], "seed": 0}\n',
             "spec lacks key 'n'"),
            (b'{"p_plus": 0.5\xff}\n', "not UTF-8 text (byte 0xff: invalid start byte)"),
        ):
            spec_path.write_bytes(text)
            # With --max-iters 1, a ds fit would print a warning line first.
            code = main(
                ["compare", informative_files["train"], informative_files["test"],
                 "--models", "ds,mv", "--max-iters", "1", "--oracle", str(spec_path),
                 "--out", str(out), "--quiet"]
            )
            assert code == 1
            err_lines = capsys.readouterr().err.splitlines()
            assert err_lines == [f"error: {spec_path}: {message}"]
            assert not out.exists()

    def test_oracle_of_other_width_is_refused(self, informative_files, tmp_path, capsys):
        spec_path = tmp_path / "oracle.json"
        SyntheticSpec(p_plus=0.5, tpr=(0.9, 0.8), fpr=(0.1, 0.2), n=10).save(str(spec_path))
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "mv", "--oracle", str(spec_path), "--out", str(out), "--quiet"]
        )
        assert code == 1
        train = informative_files["train"]
        assert capsys.readouterr().err == (
            f"error: {train} has 3 labeling functions, {spec_path} has 2\n"
        )
        assert not out.exists()

    def test_width_mismatch_names_both_files(self, informative_files, tmp_path, capsys):
        """Train and test of different widths stop compare before any fit,
        instead of giving one error row per model."""
        narrow = write_dataset(tmp_path / "narrow.jsonl", [(1, 0), (0, 1)], gold=[1, -1])
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], narrow, "--models", "weapo,mv,ds,fs",
             "--prior", "0.3", "--oracle", informative_files["oracle"], "--out", str(out),
             "--quiet"]
        )
        assert code == 1
        train = informative_files["train"]
        assert capsys.readouterr().err == (
            f"error: {train} has 3 labeling functions, {narrow} has 2\n"
        )
        assert not out.exists()

    def test_empty_model_list_is_usage_error(self, informative_files, capsys):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", ""]
        )
        assert code == 2
        assert "--models" in capsys.readouterr().err

    def test_empty_item_in_model_list_is_usage_error(self, informative_files, tmp_path,
                                                     capsys):
        """An empty name is refused, not dropped from the rows."""
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "mv,,ds", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --models: empty item in 'mv,,ds'\n")
        assert not out.exists()

    def test_unknown_model_is_usage_error(self, informative_files):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "mv,bogus"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "models, flags, message",
        [
            ("ds,mv", ["--smoothing", "nan"], "smoothing"),
            ("weapo,mv", ["--prior", "1.5"], "p_plus"),
            ("weapo,mv", ["--prior", "0.5", "--lambda-reg", "-1"], "lambda_reg"),
            ("fs,mv", ["--prior", "0.5", "--eps-clip", "2"], "eps_clip"),
            ("mv", ["--max-iters", "0"], "max_iters"),
        ],
    )
    def test_bad_fitting_value_reported_before_reading(
        self, tmp_path, capsys, models, flags, message
    ):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope-test.jsonl"),
             "--models", models, *flags, "--out", str(out), "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "nope" not in err
        assert not out.exists()

    def test_flag_no_named_model_reads_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope-test.jsonl"),
             "--models", "mv,ds", "--eps-clip", "0.5", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --eps-clip applies only to fs;")
        assert not out.exists()

    def test_flag_read_by_one_named_model_is_accepted(self, informative_files, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "mv,ds", "--max-iters", "5", "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert [row["model"] for row in read_json(out)["rows"]] == ["mv", "ds"]

    def test_model_named_twice_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope-test.jsonl"),
             "--models", "mv,ds,mv", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --models names mv more than once\n"
        assert not out.exists()

    def test_prior_required_when_weapo_requested(self, informative_files, capsys):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "weapo,mv"]
        )
        assert code == 2
        assert "--prior" in capsys.readouterr().err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A featured train/test pair and a weapo model fitted on the train."""
    root = tmp_path_factory.mktemp("entry")
    law = ["--n", "300", "--p-plus", "0.4", "--tpr", "0.75,0.65,0.55",
           "--fpr", "0.15,0.1,0.05", "--mu-pos", "1,1", "--mu-neg=-1,-1", "--sigma", "1"]
    for split, seed in (("train", 1), ("test", 2)):
        assert main(["synth", *law, "--seed", str(seed),
                     "--out", str(root / f"{split}.jsonl"), "--quiet"]) == 0
    assert main(["fit", str(root / "train.jsonl"), "--model", "weapo", "--prior", "0.4",
                 "--out", str(root / "model.json"), "--quiet"]) == 0
    return root


class TestEnding:
    """Every command ends one way: its JSON payload, then its table."""

    # Each command with the path its payload goes to; synth writes its run
    # payload next to the dataset.
    COMMANDS = {
        "synth": (["synth", "--n", "50", "--p-plus", "0.3", "--tpr", "0.7,0.6",
                   "--fpr", "0.1,0.05", "--seed", "3", "--out", "s.jsonl"], "s.jsonl.run.json"),
        "fit": (["fit", "train.jsonl", "--model", "mv", "--out", "mv.json"], "mv.json"),
        "eval": (["eval", "model.json", "test.jsonl", "--out", "eval.json"], "eval.json"),
        "end": (["end", "model.json", "train.jsonl", "test.jsonl", "--out", "end.json"],
                "end.json"),
        "compare": (["compare", "train.jsonl", "test.jsonl", "--models", "mv,ds",
                     "--out", "compare.json"], "compare.json"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_payload_prints_no_table(self, inputs, tmp_path, monkeypatch, capsys,
                                                command):
        """A directory where the payload goes: exit 1, one ``error:`` line
        and nothing on stdout, not the table of a result that was lost."""
        for path in inputs.iterdir():
            (tmp_path / path.name).symlink_to(path)
        argv, payload = self.COMMANDS[command]
        (tmp_path / payload).mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("command", ["eval", "end", "compare"])
    def test_payload_on_stdout_comes_before_the_table(self, inputs, monkeypatch, capsys,
                                                      command):
        """Without ``--out`` and ``--quiet`` stdout holds the JSON payload,
        then the table: its header, its rule and one row a model."""
        argv = self.COMMANDS[command][0][:-2]
        monkeypatch.chdir(inputs)
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload, end = json.JSONDecoder().raw_decode(out)
        assert payload["command"] == command and payload["config"]["out"] is None
        table = out[end:].splitlines()
        assert table[0] == ""
        assert table[1].split()[1:3] == ["roc_auc", "pr_auc"]
        assert set(table[2]) == {"-", " "}
        assert len(table) == 3 + (2 if command == "compare" else 1)


class TestTopLevel:
    def test_import_leaves_out_scipy_stats(self):
        """weapo depends on numpy only: neither ``import weapo`` nor
        ``import weapo.cli`` may load scipy or any of its submodules."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "import weapo\n"
            "print(scipy_modules())\n"
            "import weapo.cli\n"
            "print(scipy_modules())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.splitlines() == ["[]", "[]"]

    def test_single_vector_scorers_are_gone(self):
        for name in ("score", "mv_score", "ds_posterior", "fs_posterior"):
            assert not hasattr(weapo, name)
        assert not hasattr(Dataset, "label_matrix")

    def test_library_settings_default_to_none(self):
        """The CLI restates no library default: a flag left out is None
        and is not passed on."""
        parser = build_parser()
        fitting = ("lambda_reg", "prior_weight", "max_iters", "tol", "smoothing", "eps_clip")
        for argv in (["fit", "t.jsonl", "--model", "mv", "--out", "m.json"],
                     ["compare", "t.jsonl", "u.jsonl", "--models", "mv"]):
            args = parser.parse_args(argv)
            assert [getattr(args, name) for name in fitting] == [None] * len(fitting)
        args = parser.parse_args(["end", "m.json", "t.jsonl", "u.jsonl"])
        assert args.alpha is None and args.gamma is None

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("weapo ")

    def test_python_m_runs_the_cli(self, tmp_path):
        """``python -m weapo.cli`` runs the CLI: it prints the version and
        refuses a bad flag value with exit code 2."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        command = [sys.executable, "-m", "weapo.cli"]
        result = subprocess.run(command + ["--version"], env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, f"weapo {weapo.__version__}\n")
        out = tmp_path / "x.jsonl"
        result = subprocess.run(command + ["synth", "--out", str(out), "--n", "ten"], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 2 and "invalid int value: 'ten'" in result.stderr
        assert not out.exists()

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["bogus"]) == 2


class TestEntryPoint:
    """``run``, the console script, in processes of its own: it ends the
    process that calls it, so it is never called in this one. stdout is
    block-buffered in the child, as on a terminal-less launch, unless a
    case sets ``PYTHONUNBUFFERED``."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    ENTRY = "from weapo.cli import run; run()"

    @classmethod
    def launch(cls, argv, cwd, stdout=subprocess.PIPE, prelude="", unbuffered=False,
               input=None):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(cls.SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-c", prelude + cls.ENTRY, *argv], cwd=cwd,
                              env=env, input=input, stdout=stdout, stderr=subprocess.PIPE)

    SINKS = ("full-device", "closed-pipe", "no-stdout")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, sink",
        [pytest.param(["eval", "model.json", "test.jsonl"], sink, id=sink) for sink in SINKS]
        + [pytest.param([flag], sink, id=f"{flag[2:]}-{sink}")
           for sink in SINKS for flag in ("--version", "--help")],
    )
    def test_failed_stdout_write_is_one_clean_error(self, inputs, argv, sink, unbuffered):
        """The table and JSON of ``eval``, or the text of ``--version`` or
        ``--help``, cannot reach stdout: exit 1 with one ``error:`` line,
        not an interpreter traceback, exit 120, or exit 0 with nothing
        written."""
        if sink == "full-device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            with open("/dev/full", "wb") as full:
                result = self.launch(argv, inputs, stdout=full, unbuffered=unbuffered)
        elif sink == "closed-pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = self.launch(argv, inputs, stdout=write_end, unbuffered=unbuffered)
            finally:
                os.close(write_end)
        else:
            result = self.launch(argv, inputs, prelude="import sys; sys.stdout = None; ",
                                 unbuffered=unbuffered)
        lines = result.stderr.decode().splitlines()
        assert result.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_fit_reads_a_dataset_from_a_pipe(self, inputs, tmp_path):
        """``fit /dev/stdin``, fed through a pipe a copy of train.jsonl in
        another layout, writes the model that ``fit train.jsonl`` writes."""
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin on this system")
        with open(inputs / "train.jsonl", "r", encoding="utf-8") as fh:
            spaced = "".join(json.dumps(json.loads(line)) + "\n" for line in fh).encode()
        models = {}
        for train, stdin in ((str(inputs / "train.jsonl"), None), ("/dev/stdin", spaced)):
            cwd = tmp_path / ("disk" if stdin is None else "pipe")
            cwd.mkdir()
            result = self.launch(["fit", train, "--model", "mv", "--out", "model.json",
                                  "--quiet"], cwd, input=stdin)
            assert result.returncode == 0, result.stderr.decode()
            models[train] = read_json(cwd / "model.json")
        disk = models[str(inputs / "train.jsonl")]
        assert models["/dev/stdin"] == {**disk, "run": {**disk["run"], "train": "/dev/stdin"}}

    def test_run_writes_what_main_writes(self, inputs, tmp_path, monkeypatch, capsys):
        """Each command, a usage error and a data error, run through ``run``
        with stdout piped, writes the same files, stdout, stderr and exit
        code as ``main`` in this process."""
        law = ["--n", "200", "--p-plus", "0.3", "--tpr", "0.7,0.6,0.5", "--fpr", "0.1,0.05,0.08",
               "--mu-pos", "1,1", "--mu-neg=-1,-1", "--sigma", "1", "--seed", "5"]
        train, test = str(inputs / "train.jsonl"), str(inputs / "test.jsonl")
        commands = [
            ["synth", *law, "--out", "synth.jsonl"],
            ["fit", train, "--model", "weapo", "--prior", "0.4", "--out", "model.json"],
            ["eval", "model.json", test, "--out", "eval.json"],
            ["eval", "model.json", test],
            ["compare", train, test, "--models", "weapo,weapo-noprior,mv,ds,fs",
             "--prior", "0.4", "--oracle", train + ".oracle.json", "--out", "compare.json"],
            ["compare", train, test, "--models", "weapo,mv", "--prior", "0.4"],
            ["end", "model.json", train, test, "--out", "end.json"],
            ["fit", train, "--model", "weapo", "--out", "usage.json"],
            ["eval", train, test],
        ]
        by_run, by_main = tmp_path / "run", tmp_path / "main"
        by_run.mkdir()
        by_main.mkdir()
        monkeypatch.chdir(by_main)
        codes = []
        for argv in commands:
            result = self.launch(argv, by_run)
            code = main(argv)
            captured = capsys.readouterr()
            assert result.returncode == code, argv
            assert result.stdout.decode() == captured.out, argv
            assert result.stderr.decode() == captured.err, argv
            codes.append(code)
        assert codes == [0] * 7 + [2, 1]
        written = sorted(path.name for path in by_main.iterdir())
        assert written == sorted(path.name for path in by_run.iterdir())
        assert len(written) == 7
        for name in written:
            assert (by_run / name).read_bytes() == (by_main / name).read_bytes(), name
