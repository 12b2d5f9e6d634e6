"""Command-line interface: fit, eval, end, compare, synth.

Every command prints a small human-readable table (suppressed by
``--quiet``) and emits a machine-readable JSON payload carrying the
resolved configuration and the library version. Exit codes: 0 on
success, 1 on data or model errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .baselines import (
    DSModel,
    FSModel,
    convert_abstain,
    ds_fit,
    ds_posteriors,
    fs_fit,
    fs_posteriors,
    mv_scores,
)
from .covering import hasse_edges
from .data import (
    Dataset,
    DatasetFormatError,
    Prior,
    build_slices,
    coverage_mask,
    load_dataset,
    save_dataset,
)
from .endmodel import TargetPolicy, default_gamma, fit_krr, make_targets, predict_krr
from .metrics import UndefinedMetricError, evaluate_label_model, pr_auc, roc_auc
from .model import WeapoConfig, WeapoModel, fit, predict_dataset
from .synth import SyntheticSpec, FeatureSpec, generate, oracle_posteriors

MODEL_NAMES = ("weapo", "weapo-noprior", "mv", "ds", "fs")


class CliUsageError(Exception):
    """Bad flag combination or missing required argument."""


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _emit(payload: dict[str, Any], out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _require_gold(dataset: Dataset, path: str) -> np.ndarray:
    gold = dataset.gold_array
    if gold is None:
        raise ValueError(f"{path}: every record needs a gold label for evaluation")
    return gold


def _fit_payload(name: str, train: Dataset, prior_value: float | None, args) -> dict[str, Any]:
    """Fit one named label model and return its serializable payload."""
    if name in ("weapo", "weapo-noprior"):
        use_prior = name == "weapo"
        if use_prior and prior_value is None:
            raise CliUsageError(f"--prior is required for model {name!r}")
        config = WeapoConfig(
            lambda_reg=args.lambda_reg,
            use_prior=use_prior,
            prior_weight=args.prior_weight,
        )
        prior = Prior(prior_value) if use_prior else None
        model = fit(train, prior, config)
        payload = {"model_type": "weapo"}
        payload.update(model.to_json_dict())
        return payload
    if name == "mv":
        return {"model_type": "mv", "num_lfs": train.num_lfs}
    if name == "ds":
        init = Prior(prior_value) if prior_value is not None else Prior(0.5)
        model = ds_fit(
            convert_abstain(train),
            init,
            max_iters=args.max_iters,
            tol=args.tol,
            smoothing=args.smoothing,
        )
        if not model.diagnostics["converged"]:
            print(
                f"warning: ds: EM stopped at its iteration cap "
                f"({model.diagnostics['iterations']}) before converging",
                file=sys.stderr,
            )
        payload = {"model_type": "ds"}
        payload.update(model.to_json_dict())
        return payload
    if name == "fs":
        if prior_value is None:
            raise CliUsageError("--prior is required for model 'fs'")
        model = fs_fit(convert_abstain(train), Prior(prior_value), eps_clip=args.eps_clip)
        payload = {"model_type": "fs"}
        payload.update(model.to_json_dict())
        return payload
    raise CliUsageError(f"unknown model {name!r}")


def _read_model(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model file holds one JSON object")
    return payload


def _model_scores(payload: dict[str, Any], dataset: Dataset) -> np.ndarray:
    """Scores for every record of ``dataset`` under a serialized model."""
    kind = payload.get("model_type")
    if kind == "weapo":
        model = WeapoModel.from_json_dict(payload)
        scores, _ = predict_dataset(model, dataset)
        return scores
    if kind == "mv":
        if payload.get("num_lfs") != dataset.num_lfs:
            raise ValueError(
                f"dataset has {dataset.num_lfs} labeling functions, "
                f"model expects {payload.get('num_lfs')}"
            )
        return mv_scores(dataset)
    if kind == "ds":
        return ds_posteriors(DSModel.from_json_dict(payload), convert_abstain(dataset))
    if kind == "fs":
        return fs_posteriors(FSModel.from_json_dict(payload), convert_abstain(dataset))
    raise ValueError(f"unknown model_type {kind!r} in model file")


def cmd_fit(args) -> int:
    train = load_dataset(args.train)
    payload = _fit_payload(args.model, train, args.prior, args)
    payload["version"] = __version__
    payload["run"] = {
        "command": "fit",
        "train": args.train,
        "model": args.model,
        "prior": args.prior,
        "out": args.out,
    }
    _emit(payload, args.out)
    if args.dump_edges is not None:
        slices = build_slices(train)
        edges = hasse_edges(slices.slices.keys())
        edge_rows = [
            {
                "low": list(e.low),
                "high": list(e.high),
                "d_low_size": len(slices.slices[e.low]),
                "d_high_size": len(slices.slices[e.high]),
            }
            for e in edges
        ]
        with open(args.dump_edges, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(edge_rows, indent=2))
            fh.write("\n")
    if not args.quiet:
        covered = int(coverage_mask(train).sum())
        rows = [[args.model, str(len(train)), str(covered), args.out or "-"]]
        _print_table(["model", "n_train", "n_covered", "out"], rows)
    return 0


def cmd_eval(args) -> int:
    payload = _read_model(args.model)
    test = load_dataset(args.test)
    gold = _require_gold(test, args.test)
    scores = _model_scores(payload, test)
    result = evaluate_label_model(scores, coverage_mask(test), gold)
    out_payload = {
        "command": "eval",
        "version": __version__,
        "config": {
            "model": args.model,
            "test": args.test,
            "model_type": payload.get("model_type"),
            "out": args.out,
        },
        "result": result.to_json_dict(),
        "n_records": len(test),
    }
    if not args.quiet:
        _print_table(
            ["model", "roc_auc", "pr_auc", "n_covered", "n_pos", "n_neg"],
            [[
                str(payload.get("model_type")),
                f"{result.roc_auc:.4f}",
                f"{result.pr_auc:.4f}",
                str(result.n_evaluated),
                str(result.n_pos),
                str(result.n_neg),
            ]],
        )
    _emit(out_payload, args.out)
    return 0


def cmd_end(args) -> int:
    payload = _read_model(args.model)
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    if train.features_matrix is None:
        raise ValueError(f"{args.train}: end model needs features on every record")
    if test.features_matrix is None:
        raise ValueError(f"{args.test}: end model needs features on every record")
    gold = _require_gold(test, args.test)
    label_scores = _model_scores(payload, train)
    targets = make_targets(
        label_scores,
        coverage_mask(train),
        TargetPolicy(uncovered_target=args.uncovered_target),
    )
    if np.ptp(targets) == 0.0:
        raise ValueError(
            "all training targets are identical (is any record covered?); "
            "the end model would be a constant"
        )
    gamma = args.gamma if args.gamma is not None else default_gamma(train.features_matrix)
    krr = fit_krr(train.features_matrix, targets, gamma=gamma, alpha=args.alpha)
    predictions = predict_krr(krr, test.features_matrix)
    # The end model is evaluated on every test record, covered or not.
    roc = roc_auc(predictions, gold)
    pr = pr_auc(predictions, gold)
    out_payload = {
        "command": "end",
        "version": __version__,
        "config": {
            "model": args.model,
            "train": args.train,
            "test": args.test,
            "gamma": gamma,
            "alpha": args.alpha,
            "uncovered_target": args.uncovered_target,
            "out": args.out,
        },
        "result": {
            "roc_auc": roc,
            "pr_auc": pr,
            "n_evaluated": len(test),
        },
    }
    if not args.quiet:
        _print_table(
            ["label_model", "roc_auc", "pr_auc", "n_test"],
            [[
                str(payload.get("model_type")),
                f"{roc:.4f}",
                f"{pr:.4f}",
                str(len(test)),
            ]],
        )
    _emit(out_payload, args.out)
    return 0


def cmd_compare(args) -> int:
    names = [m for m in (args.models.split(",") if args.models else []) if m]
    if not names:
        raise CliUsageError("--models must name at least one model")
    for name in names:
        if name not in MODEL_NAMES:
            raise CliUsageError(
                f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
            )
    needs_prior = {"weapo", "fs"} & set(names)
    if needs_prior and args.prior is None:
        raise CliUsageError(
            f"--prior is required for model(s): {', '.join(sorted(needs_prior))}"
        )
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    gold = _require_gold(test, args.test)
    mask = coverage_mask(test)

    def scores_of(name: str) -> np.ndarray:
        if name == "oracle":
            return oracle_posteriors(SyntheticSpec.load(args.oracle)).scores(test)
        return _model_scores(_fit_payload(name, train, args.prior, args), test)

    rows: list[dict[str, Any]] = []
    for name in names + (["oracle"] if args.oracle is not None else []):
        row: dict[str, Any] = {"model": name}
        try:
            result = evaluate_label_model(scores_of(name), mask, gold)
            row.update(result.to_json_dict())
            row["error"] = None
        except (ValueError, UndefinedMetricError) as err:
            row.update(
                {"roc_auc": None, "pr_auc": None, "n_pos": None, "n_neg": None,
                 "n_evaluated": None, "error": str(err)}
            )
        rows.append(row)
    out_payload = {
        "command": "compare",
        "version": __version__,
        "config": {
            "train": args.train,
            "test": args.test,
            "models": names,
            "prior": args.prior,
            "oracle": args.oracle,
            "out": args.out,
        },
        "rows": rows,
    }
    if not args.quiet:
        table_rows = []
        for row in rows:
            if row["error"] is None:
                table_rows.append(
                    [row["model"], f"{row['roc_auc']:.4f}", f"{row['pr_auc']:.4f}",
                     str(row["n_evaluated"])]
                )
            else:
                table_rows.append([row["model"], "-", "-", f"error: {row['error']}"])
        _print_table(["model", "roc_auc", "pr_auc", "n_covered"], table_rows)
    _emit(out_payload, args.out)
    return 0


def _resolve_spec(args) -> SyntheticSpec:
    inline = [args.n, args.p_plus, args.tpr, args.fpr]
    if args.spec is not None:
        if any(v is not None for v in inline):
            raise CliUsageError("--spec cannot be combined with inline generator flags")
        spec = SyntheticSpec.load(args.spec)
        if args.seed is not None:
            spec = SyntheticSpec.from_json_dict({**spec.to_json_dict(), "seed": args.seed})
        return spec
    if any(v is None for v in [args.n, args.p_plus, args.tpr, args.fpr]):
        raise CliUsageError("either --spec or all of --n/--p-plus/--tpr/--fpr are required")
    if args.n < 1:
        raise CliUsageError("--n must be at least 1")
    feature_flags = [args.mu_pos, args.mu_neg, args.sigma]
    feature_spec = None
    if any(v is not None for v in feature_flags):
        if any(v is None for v in feature_flags):
            raise CliUsageError("--mu-pos, --mu-neg, and --sigma must be given together")
        feature_spec = FeatureSpec(
            mu_pos=tuple(args.mu_pos), mu_neg=tuple(args.mu_neg), sigma=args.sigma
        )
    try:
        return SyntheticSpec(
            p_plus=args.p_plus,
            tpr=tuple(args.tpr),
            fpr=tuple(args.fpr),
            n=args.n,
            seed=args.seed if args.seed is not None else 0,
            feature_spec=feature_spec,
        )
    except ValueError as err:
        raise CliUsageError(str(err)) from None


def cmd_synth(args) -> int:
    spec = _resolve_spec(args)
    dataset = generate(spec)
    save_dataset(dataset, args.out)
    oracle_path = args.out + ".oracle.json"
    spec.save(oracle_path)
    run_payload = {
        "command": "synth",
        "version": __version__,
        "config": {"spec": spec.to_json_dict(), "out": args.out, "oracle": oracle_path},
    }
    _emit(run_payload, args.out + ".run.json")
    if not args.quiet:
        covered = int(coverage_mask(dataset).sum())
        positives = int((dataset.gold == 1).sum())
        _print_table(
            ["n", "num_lfs", "covered", "positives", "out"],
            [[str(len(dataset)), str(dataset.num_lfs), str(covered),
              str(positives), args.out]],
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weapo",
        description="Label models for positive-only weak supervision",
    )
    parser.add_argument("--version", action="version", version=f"weapo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Fitting flags shared by fit and compare.
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--lambda-reg", type=float, default=1.0)
    fitting.add_argument("--prior-weight", type=float, default=1.0)
    fitting.add_argument("--max-iters", type=int, default=100,
                         help="Dawid-Skene EM iteration cap")
    fitting.add_argument("--tol", type=float, default=1e-6,
                         help="Dawid-Skene EM stopping tolerance")
    fitting.add_argument("--smoothing", type=float, default=1.0)
    fitting.add_argument("--eps-clip", type=float, default=1e-4)

    p_fit = sub.add_parser("fit", parents=[fitting],
                           help="fit a label model on a training dataset")
    p_fit.add_argument("train", help="training dataset (JSONL)")
    p_fit.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_fit.add_argument("--prior", type=float, default=None,
                       help="positive-class prior (required for weapo and fs)")
    p_fit.add_argument("--out", required=True, help="where to write the model JSON")
    p_fit.add_argument("--dump-edges", default=None,
                       help="also write the covering-order edges as JSON")
    p_fit.add_argument("--quiet", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a fitted model on covered test records")
    p_eval.add_argument("model", help="model JSON from fit")
    p_eval.add_argument("test", help="test dataset with gold labels")
    p_eval.add_argument("--out", default=None, help="write the result JSON here")
    p_eval.add_argument("--quiet", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_end = sub.add_parser("end", help="train the feature end model and evaluate it")
    p_end.add_argument("model", help="label-model JSON from fit")
    p_end.add_argument("train", help="training dataset with features")
    p_end.add_argument("test", help="test dataset with features and gold labels")
    p_end.add_argument("--gamma", type=float, default=None,
                       help="RBF bandwidth (default: 1 / (F * var))")
    p_end.add_argument("--alpha", type=float, default=1.0, help="ridge strength")
    p_end.add_argument("--uncovered-target", type=float, default=0.0)
    p_end.add_argument("--out", default=None)
    p_end.add_argument("--quiet", action="store_true")
    p_end.set_defaults(func=cmd_end)

    p_cmp = sub.add_parser("compare", parents=[fitting],
                           help="fit several models and tabulate test metrics")
    p_cmp.add_argument("train")
    p_cmp.add_argument("test")
    p_cmp.add_argument("--models", required=True,
                       help="comma-separated subset of: " + ", ".join(MODEL_NAMES))
    p_cmp.add_argument("--prior", type=float, default=None)
    p_cmp.add_argument("--oracle", default=None,
                       help="synthetic spec JSON; adds a Bayes-oracle row")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--quiet", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset plus its oracle")
    p_synth.add_argument("--out", required=True, help="dataset output path (JSONL)")
    p_synth.add_argument("--spec", default=None, help="generator spec JSON")
    p_synth.add_argument("--n", type=int, default=None)
    p_synth.add_argument("--p-plus", type=float, default=None)
    p_synth.add_argument("--tpr", type=_float_list, default=None)
    p_synth.add_argument("--fpr", type=_float_list, default=None)
    p_synth.add_argument("--mu-pos", type=_float_list, default=None)
    p_synth.add_argument("--mu-neg", type=_float_list, default=None)
    p_synth.add_argument("--sigma", type=float, default=None)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--quiet", action="store_true")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return int(args.func(args))
    except CliUsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DatasetFormatError, UndefinedMetricError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}; try a smaller dataset", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
