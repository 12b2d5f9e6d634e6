"""Command-line interface: fit, eval, end, compare, synth.

Every command ends in ``_report``: it writes a JSON payload carrying the
resolved configuration and the library version (to ``--out``, or stdout),
then prints a small table unless ``--quiet`` is given, so a command whose
payload cannot be written prints no table. Exit codes: 0 on success, 1 on
data or model errors, 2 on usage errors.

The CLI restates one library default: ``--uncovered-target`` defaults to
``make_targets``'s 0.0, which ``end`` records in its output. Every other
flag that sets a library value defaults to None and is passed on only
when given. ``fit`` and ``compare`` check the model names, the prior
requirement, ``--prior`` and every fitting flag given in
``_fit_settings``, before any file is read. A model named twice, or a
flag that no named model reads, is a usage error, not silently ignored.
A model file holds the model's own payload plus the keys in
``ENVELOPE_KEYS``; the model classes check the payload. ``eval``,
``end`` and ``compare`` check that their files agree on the number of
labeling functions, and ``end`` on the feature width, before any fit or
scoring. ``synth`` turns its inline generator flags into the payload a
spec file holds and reads both with ``SyntheticSpec.from_json_dict``, so
a bad rate, mean, sigma or seed gets one message however it is given: a
usage error from a flag, a data error naming the file from a spec file.

At load time the module imports only the standard library and
``__version__``. Each command imports the weapo modules it uses when it
runs, so ``--version``, ``--help`` and a usage error from argparse load
no numpy, and ``fit`` never loads the end model or the generator.

``run``, the ``weapo`` console script, ends the process without
interpreter teardown once the output is flushed; output that cannot be
written is an error with exit code 1. ``main`` only returns the code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence, TypeAlias

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from .data import Dataset, VotePatterns
    from .synth import SyntheticSpec

# Each label model and the fitting flags its fit reads besides --prior,
# which weapo, ds and fs read; a flag that no named model reads is refused
# rather than ignored. weapo-noprior's theta is the uniform vector
# whatever its settings, so it reads none.
_FLAGS = {
    "weapo": ("lambda_reg",),
    "weapo-noprior": (),
    "mv": (),
    "ds": ("max_iters", "tol", "smoothing"),
    "fs": ("eps_clip",),
}
MODEL_NAMES = tuple(_FLAGS)
# Keys a model file holds besides the model's own payload.
ENVELOPE_KEYS = ("model_type", "version", "run")


class CliUsageError(Exception):
    """Bad flag combination or missing required argument."""


def _comma_list(item: Callable[[str], Any]) -> Callable[[str], list]:
    """The argparse type of a comma-separated list of ``item`` values, none empty."""
    def read(text: str) -> list:
        parts = text.split(",")
        if "" in (part.strip() for part in parts):
            raise argparse.ArgumentTypeError(
                f"empty item in {text!r}" if text.replace(",", "").strip() else "empty list")
        try:
            return [item(part) for part in parts]
        except ValueError:
            message = f"not a comma-separated {item.__name__} list: {text!r}"
            raise argparse.ArgumentTypeError(message)
    return read


def _report(args, payload: dict[str, Any], out: str | None, headers: list[str],
            table: Callable[[], list[list[str]]]) -> int:
    """How every command ends: the JSON payload to ``out`` (stdout when
    None), then, unless ``--quiet``, the table of ``headers`` and of the
    rows ``table`` returns, which is called only then. A payload that
    cannot be written raises before any table is printed."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        rows = table()
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        for row in (headers, ["-" * w for w in widths], *rows):
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def _require_gold(dataset: Dataset, path: str) -> np.ndarray:
    if len(dataset) == 0:
        raise ValueError(f"{path}: the file has no records to evaluate on")
    gold = dataset.gold_array
    if gold is None:
        raise ValueError(f"{path}: every record needs a gold label for evaluation")
    return gold


def _given(args, *names: str) -> dict[str, Any]:
    """The flags among ``names`` that were given, as keyword arguments; a
    flag left out is not passed on, so the library default applies."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _fit_settings(names: Sequence[str], args) -> dict[str, Any]:
    """Check the model names, the prior requirement, every fitting flag
    given, whichever models are named, and then that some named model
    reads each flag given, before any file is read; return the settings
    ``_fit_payload`` uses: the prior, and by model name the keyword
    arguments of the flags given that its fit reads."""
    from .data import Prior
    from .model import WeapoConfig

    for name in names:
        if name not in MODEL_NAMES:
            raise CliUsageError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise CliUsageError(f"--models names {', '.join(twice)} more than once")
    needs_prior = sorted({"weapo", "fs"} & set(names))
    if needs_prior and args.prior is None:
        raise CliUsageError(f"--prior is required for model(s): {', '.join(needs_prior)}")
    settings = {name: _given(args, *flags) for name, flags in _FLAGS.items()}
    if settings["ds"] or settings["fs"]:  # a fit given none of them loads no baselines
        from .baselines import check_ds_settings, check_fs_settings

        check_ds_settings(**settings["ds"])
        check_fs_settings(**settings["fs"])
    prior = None if args.prior is None else Prior(args.prior)
    WeapoConfig(**settings["weapo"])
    readers = {flag: (name,) for name, flags in _FLAGS.items() for flag in flags}
    for flag, models in {**readers, "prior": ("weapo", "ds", "fs")}.items():
        if getattr(args, flag) is not None and not set(models) & set(names):
            raise CliUsageError(
                f"--{flag.replace('_', '-')} applies only to {', '.join(models)}; "
                "no model named reads it"
            )
    return {**settings, "prior": prior}


def _fit_payload(name: str, train: Dataset, settings: dict[str, Any]) -> dict[str, Any]:
    """Fit one named label model with settings from ``_fit_settings`` and
    return its serializable payload."""
    prior = settings["prior"]
    if name == "mv":
        return {"model_type": "mv", "num_lfs": train.num_lfs}
    if name == "ds":
        from .baselines import ds_fit

        given = {} if prior is None else {"init_prior": prior}
        model = ds_fit(train, **given, **settings["ds"])
        if not model.diagnostics["converged"]:
            print(
                f"warning: ds: EM stopped at its iteration cap "
                f"({model.diagnostics['iterations']}) before converging",
                file=sys.stderr,
            )
    elif name == "fs":
        from .baselines import fs_fit

        model = fs_fit(train, prior, **settings["fs"])
    else:
        from .model import WeapoConfig, _prior_band, fit

        model = fit(train, prior, WeapoConfig(**settings["weapo"], use_prior=name == "weapo"))
        name = "weapo"
        if model.config.use_prior:
            low, high = _prior_band(train, model.config)
            side = "below" if prior.p_plus < low else "above" if prior.p_plus > high else None
            if side is not None:
                print(
                    f"warning: prior {prior.p_plus} is {side} the band [{low:.4f}, {high:.4f}] "
                    f"where it changes theta; every prior {side} it gives the same model",
                    file=sys.stderr,
                )
    return {"model_type": name, **model.to_json_dict()}


Scorer: TypeAlias = "Callable[[VotePatterns], np.ndarray]"


def _scorer(payload: dict[str, Any]) -> tuple[int, Scorer]:
    """The number of labeling functions of a serialized model and the
    function that scores each vote pattern of a dataset of that width. A
    fault of the payload raises ``ValueError``."""
    kind = payload.get("model_type")
    body = {key: value for key, value in payload.items() if key not in ENVELOPE_KEYS}
    if kind == "mv":
        from .baselines import _mv_patterns
        from .payload import check_keys, integer

        check_keys(body, "mv model payload", ("num_lfs",))
        return integer(body, "num_lfs", minimum=1), _mv_patterns
    # Only the module of the model_type read is imported.
    if kind == "weapo":
        from .model import WeapoModel as cls
    elif kind == "ds":
        from .baselines import DSModel as cls
    elif kind == "fs":
        from .baselines import FSModel as cls
    else:
        raise ValueError(f"unknown model_type {kind!r} in model file")
    model = cls.from_json_dict(body)
    return model.num_lfs, model.pattern_scores


def _read_model(path: str) -> tuple[dict[str, Any], int, Scorer]:
    """The payload of a model file, its number of labeling functions and
    its scorer; every fault of the file raises ``ValueError`` naming
    ``path``."""
    from .payload import read_json

    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model file holds one JSON object")
    try:
        return payload, *_scorer(payload)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _same_width(unit: str, *files: tuple[str, int]) -> None:
    """Raise ``ValueError`` naming the first file and the first other file
    whose count of ``unit`` differs from it."""
    (first, width), *others = files
    for path, other in others:
        if other != width:
            raise ValueError(f"{first} has {width} {unit}, {path} has {other}")


def cmd_fit(args) -> int:
    from .data import coverage_mask, load_dataset

    settings = _fit_settings([args.model], args)
    train = load_dataset(args.train)
    payload = _fit_payload(args.model, train, settings)
    payload["version"] = __version__
    payload["run"] = {
        "command": "fit",
        "train": args.train,
        "model": args.model,
        "prior": args.prior,
        "out": args.out,
    }
    return _report(
        args, payload, args.out, ["model", "n_train", "n_covered", "out"],
        lambda: [[args.model, str(len(train)), str(coverage_mask(train).sum()), args.out]],
    )


def cmd_eval(args) -> int:
    from .data import load_dataset
    from .metrics import evaluate_patterns

    payload, num_lfs, score = _read_model(args.model)
    test = load_dataset(args.test)
    _same_width("labeling functions", (args.model, num_lfs), (args.test, test.num_lfs))
    _require_gold(test, args.test)
    result = evaluate_patterns(score(test.patterns), test.patterns)
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
    return _report(
        args, out_payload, args.out, ["model", "roc_auc", "pr_auc", "n_covered", "n_pos", "n_neg"],
        lambda: [[str(payload.get("model_type")), f"{result.roc_auc:.4f}", f"{result.pr_auc:.4f}",
                  str(result.n_evaluated), str(result.n_pos), str(result.n_neg)]],
    )


def cmd_end(args) -> int:
    import numpy as np

    from .data import coverage_mask, load_dataset, record_scores
    from .endmodel import check_krr_settings, fit_krr, make_targets, predict_krr
    from .metrics import pr_auc, roc_auc

    check_krr_settings(args.gamma, args.alpha, args.uncovered_target)
    payload, num_lfs, score = _read_model(args.model)
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    _same_width(
        "labeling functions",
        (args.model, num_lfs), (args.train, train.num_lfs), (args.test, test.num_lfs),
    )
    for path, dataset in ((args.train, train), (args.test, test)):
        if dataset.features_matrix is None or dataset.features_matrix.shape[1] == 0:
            raise ValueError(f"{path}: end model needs at least one feature on every record")
    _same_width(
        "features per record",
        (args.train, train.features_matrix.shape[1]), (args.test, test.features_matrix.shape[1]),
    )
    gold = _require_gold(test, args.test)
    label_scores = record_scores(score, train)
    targets = make_targets(label_scores, coverage_mask(train), args.uncovered_target)
    if np.ptp(targets) == 0.0:
        raise ValueError(
            "all training targets are identical (is any record covered?); "
            "the end model would be a constant"
        )
    # The end model's errors name the file whose features they concern.
    try:
        krr = fit_krr(train.features_matrix, targets, gamma=args.gamma, **_given(args, "alpha"))
    except ValueError as err:
        raise ValueError(f"{args.train}: {err}") from None
    try:
        predictions = predict_krr(krr, test.features_matrix)
    except ValueError as err:
        raise ValueError(f"{args.test}: {err}") from None
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
            "gamma": krr.gamma,
            "alpha": krr.alpha,
            "uncovered_target": args.uncovered_target,
            "out": args.out,
        },
        "result": {
            "roc_auc": roc,
            "pr_auc": pr,
            "n_evaluated": len(test),
        },
    }
    return _report(
        args, out_payload, args.out, ["label_model", "roc_auc", "pr_auc", "n_test"],
        lambda: [[str(payload.get("model_type")), f"{roc:.4f}", f"{pr:.4f}", str(len(test))]],
    )


def cmd_compare(args) -> int:
    from .data import load_dataset
    from .metrics import evaluate_patterns

    names = args.models
    settings = _fit_settings(names, args)
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    widths = [(args.train, train.num_lfs), (args.test, test.num_lfs)]
    oracle = None
    if args.oracle is not None:
        from .synth import SyntheticSpec, oracle_posteriors

        spec = SyntheticSpec.load(args.oracle)
        widths.append((args.oracle, spec.num_lfs))
        oracle = oracle_posteriors(spec)
    _same_width("labeling functions", *widths)
    _require_gold(test, args.test)

    def scorer(name: str) -> Scorer:
        if name == "oracle":
            return oracle.pattern_scores
        return _scorer(_fit_payload(name, train, settings))[1]

    rows: list[dict[str, Any]] = []
    table: list[list[str]] = []
    for name in names + (["oracle"] if oracle is not None else []):
        try:
            result = evaluate_patterns(scorer(name)(test.patterns), test.patterns)
        except ValueError as err:
            empty = dict.fromkeys(("roc_auc", "pr_auc", "n_pos", "n_neg", "n_evaluated"))
            rows.append({"model": name, **empty, "error": str(err)})
            table.append([name, "-", "-", f"error: {err}"])
        else:
            rows.append({"model": name, **result.to_json_dict(), "error": None})
            table.append([name, f"{result.roc_auc:.4f}", f"{result.pr_auc:.4f}",
                          str(result.n_evaluated)])
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
    return _report(args, out_payload, args.out, ["model", "roc_auc", "pr_auc", "n_covered"],
                   lambda: table)


def _resolve_spec(args) -> SyntheticSpec:
    """The spec from ``--spec`` or the inline flags, with any ``--seed``,
    read by ``SyntheticSpec.from_json_dict``. A spec file is read whole, its
    own seed too, before ``--seed`` applies, so each fault of the file is a
    data error; a bad flag or flag value is a usage error."""
    from .synth import SyntheticSpec

    inline = [args.n, args.p_plus, args.tpr, args.fpr]
    feature_flags = [args.mu_pos, args.mu_neg, args.sigma]
    if args.spec is not None:
        if any(v is not None for v in inline + feature_flags):
            raise CliUsageError("--spec cannot be combined with inline generator flags")
        payload = SyntheticSpec.load(args.spec).to_json_dict()
        if payload["n"] < 1:
            raise ValueError(f"{args.spec}: key 'n' must be an integer of at least 1")
    elif any(v is None for v in inline):
        raise CliUsageError("either --spec or all of --n/--p-plus/--tpr/--fpr are required")
    elif args.n < 1:
        raise CliUsageError("--n must be at least 1")
    elif any(v is None for v in feature_flags) and any(v is not None for v in feature_flags):
        raise CliUsageError("--mu-pos, --mu-neg, and --sigma must be given together")
    else:
        payload = {"p_plus": args.p_plus, "tpr": args.tpr, "fpr": args.fpr, "n": args.n,
                   "seed": SyntheticSpec.seed}
        if args.sigma is not None:
            payload["feature_spec"] = {"mu_pos": args.mu_pos, "mu_neg": args.mu_neg,
                                       "sigma": args.sigma}
    if args.seed is not None:
        payload["seed"] = args.seed
    try:
        return SyntheticSpec.from_json_dict(payload)
    except ValueError as err:
        raise CliUsageError(str(err)) from None


def cmd_synth(args) -> int:
    from .data import coverage_mask, save_dataset
    from .synth import generate

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
    return _report(
        args, run_payload, args.out + ".run.json", ["n", "num_lfs", "covered", "positives", "out"],
        lambda: [[str(len(dataset)), str(dataset.num_lfs), str(coverage_mask(dataset).sum()),
                  str((dataset.gold == 1).sum()), args.out]],
    )


class _Parser(argparse.ArgumentParser):
    # argparse drops an OSError of its help and version text, and writes it
    # to stderr when stdout is None: let it fail as other output does.
    def _print_message(self, message: str, file: Any = None) -> None:
        if file is sys.stderr:
            super()._print_message(message, file)
        elif file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weapo",
        description="Label models for positive-only weak supervision",
    )
    parser.add_argument("--version", action="version", version=f"weapo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags every command shares.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="print no table")
    # Fitting flags shared by fit and compare. None means "not given": the
    # flag is not passed on, and the library's own default applies.
    fitting = argparse.ArgumentParser(add_help=False, parents=[common])
    fitting.add_argument("--prior", type=float, default=None,
                         help="positive-class prior (required for weapo and fs)")
    fitting.add_argument("--lambda-reg", type=float, default=None)
    fitting.add_argument("--max-iters", type=int, default=None,
                         help="Dawid-Skene EM iteration cap")
    fitting.add_argument("--tol", type=float, default=None,
                         help="Dawid-Skene EM stopping tolerance")
    fitting.add_argument("--smoothing", type=float, default=None)
    fitting.add_argument("--eps-clip", type=float, default=None)

    p_fit = sub.add_parser("fit", parents=[fitting],
                           help="fit a label model on a training dataset")
    p_fit.add_argument("train", help="training dataset (JSONL)")
    p_fit.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_fit.add_argument("--out", required=True, help="where to write the model JSON")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a fitted model on covered test records")
    p_eval.add_argument("model", help="model JSON from fit")
    p_eval.add_argument("test", help="test dataset with gold labels")
    p_eval.add_argument("--out", default=None, help="write the result JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_end = sub.add_parser("end", parents=[common],
                           help="train the feature end model and evaluate it")
    p_end.add_argument("model", help="label-model JSON from fit")
    p_end.add_argument("train", help="training dataset with features")
    p_end.add_argument("test", help="test dataset with features and gold labels")
    p_end.add_argument("--gamma", type=float, default=None,
                       help="RBF bandwidth (default: 1 / (F * var))")
    p_end.add_argument("--alpha", type=float, default=None, help="ridge strength")
    p_end.add_argument("--uncovered-target", type=float, default=0.0)
    p_end.add_argument("--out", default=None)
    p_end.set_defaults(func=cmd_end)

    p_cmp = sub.add_parser("compare", parents=[fitting],
                           help="fit several models and tabulate test metrics")
    p_cmp.add_argument("train")
    p_cmp.add_argument("test")
    p_cmp.add_argument("--models", required=True, type=_comma_list(str),
                       help="comma-separated subset of: " + ", ".join(MODEL_NAMES))
    p_cmp.add_argument("--oracle", default=None,
                       help="synthetic spec JSON; adds a Bayes-oracle row")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a synthetic dataset plus its oracle")
    p_synth.add_argument("--out", required=True, help="dataset output path (JSONL)")
    p_synth.add_argument("--spec", default=None, help="generator spec JSON")
    p_synth.add_argument("--n", type=int, default=None)
    p_synth.add_argument("--p-plus", type=float, default=None)
    p_synth.add_argument("--tpr", type=_comma_list(float), default=None)
    p_synth.add_argument("--fpr", type=_comma_list(float), default=None)
    p_synth.add_argument("--mu-pos", type=_comma_list(float), default=None)
    p_synth.add_argument("--mu-neg", type=_comma_list(float), default=None)
    p_synth.add_argument("--sigma", type=float, default=None)
    p_synth.add_argument("--seed", type=int, default=None)
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
    except OSError as err:
        print(f"error: cannot write to stdout: {err}", file=sys.stderr)
        return 1
    try:
        return int(args.func(args))
    except CliUsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # The JSON readers report nesting deeper than the stack with the file
    # or line; RecursionError from anywhere else is still a clean error.
    # DatasetFormatError and UndefinedMetricError are ValueErrors.
    except (ValueError, OSError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}; try a smaller dataset", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The console-script entry point: ``main``, then flush stdout and
    stderr and end the process with ``os._exit``. Every file a command
    writes is closed by then, so module teardown, the final collection
    and BLAS thread shutdown are skipped. A command that succeeded but
    whose output could not be flushed (a full device, a closed pipe, no
    stdout at all) exits 1 with one ``error:`` line."""
    code = main()
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)
        try:
            if stream is None:
                raise OSError("the stream is closed")
            stream.flush()
        except OSError as err:
            # A failed command has reported its own error already.
            if code == 0 and sys.stderr is not None:
                try:
                    print(f"error: cannot write to {name}: {err}", file=sys.stderr, flush=True)
                except OSError:
                    pass
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
