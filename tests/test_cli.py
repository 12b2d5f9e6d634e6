"""End-to-end CLI behavior: files in, files out, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weapo import Dataset, Record, SyntheticSpec, generate, save_dataset
from weapo.cli import main


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
        code = main(
            ["synth", "--out", str(tmp_path / "x.jsonl"),
             "--spec", str(spec_path), "--n", "10"]
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

    def test_spec_file_with_seed_override(self, tmp_path):
        spec = SyntheticSpec(p_plus=0.4, tpr=(0.8, 0.6), fpr=(0.1, 0.2), n=40, seed=0)
        spec_path = tmp_path / "spec.json"
        spec.save(str(spec_path))
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

    def test_fs_needs_three_functions(self, tmp_path, capsys):
        train = write_dataset(tmp_path / "two.jsonl", [(1, 0), (0, 1), (1, 1)])
        code = main(
            ["fit", train, "--model", "fs", "--prior", "0.5",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "M >= 3" in capsys.readouterr().err

    def test_dump_edges(self, tmp_path):
        train = write_dataset(
            tmp_path / "t.jsonl", [(1, 0), (1, 1), (1, 1), (0, 0)]
        )
        edges_path = tmp_path / "edges.json"
        assert main(
            ["fit", train, "--model", "mv", "--out", str(tmp_path / "m.json"),
             "--dump-edges", str(edges_path), "--quiet"]
        ) == 0
        edges = read_json(edges_path)
        assert edges == [
            {"low": [1, 0], "high": [1, 1], "d_low_size": 1, "d_high_size": 2}
        ]

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
        ],
        ids=["weapo", "weapo-width", "ds", "ds-rows", "fs", "not-an-object"],
    )
    def test_invalid_model_payload(self, tmp_path, capsys, payload, message):
        test = write_dataset(tmp_path / "test.jsonl", [(1, 1), (1, 0)], gold=[1, -1])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert main(["eval", str(model), test, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert re.search(message, err)

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
            assert err.startswith("error: line 2: ") and message in err


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

    def test_out_of_memory_is_clean_error(self, feature_files, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.7 GiB")

        monkeypatch.setattr("weapo.cli.fit_krr", exhausted)
        code = main(
            ["end", feature_files["model"], feature_files["train"],
             feature_files["test"], "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
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

    def test_empty_model_list_is_usage_error(self, informative_files, capsys):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", ""]
        )
        assert code == 2
        assert "--models" in capsys.readouterr().err

    def test_unknown_model_is_usage_error(self, informative_files):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "mv,bogus"]
        )
        assert code == 2

    def test_prior_required_when_weapo_requested(self, informative_files, capsys):
        code = main(
            ["compare", informative_files["train"], informative_files["test"],
             "--models", "weapo,mv"]
        )
        assert code == 2
        assert "--prior" in capsys.readouterr().err


class TestTopLevel:
    def test_import_leaves_out_scipy_stats(self):
        """scipy.stats and scipy.special cost most of a second to import;
        the CLI needs neither."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, weapo.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False False"

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("weapo ")

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["bogus"]) == 2
