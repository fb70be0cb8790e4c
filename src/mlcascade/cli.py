"""Command-line front end: generate datasets, run benchmarks, train and predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthNetSpec,
    apply_standardizer,
    check_utf8,
    csv_line,
    fit_standardizer,
    gen_logical,
    gen_synthetic,
    load_csv,
    save_csv,
)
from .evaluate import MethodFailure, run_experiment
from .logistic import TrainConfig, at_least
from .methods import (
    METHOD_NAMES,
    MethodConfig,
    load_model,
    save_model,
    train_method,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this project reserves 2 for data errors.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextmanager
def _atomic_file(path: Path):
    """Yield a temporary path to write to; on success move it onto path.

    If the block raises, the temporary file is removed and the error
    re-raised, so path is either complete or untouched."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(csv_path: Path, manifest: dict) -> Path:
    manifest_path = csv_path.with_suffix(".manifest.json")
    with _atomic_file(manifest_path) as tmp:
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def _checked(make, *args, **kw):
    """make(*args, **kw), where an error for a value out of range, which
    starts with the name of the value (a config's field, or at_least's name
    for a flag's dest), is a usage error naming its flag."""
    try:
        return make(*args, **kw)
    except ValueError as e:
        raise UsageError(f"{_FLAG_OF[str(e).split()[0]]}: {e}") from None


def _config(cls, args, **given):
    """A cls from the parsed flags named after its fields and the given
    values; a value out of range is a usage error."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return _checked(cls, **flags | given)


def _method_config(args) -> MethodConfig:
    """The method flags as a MethodConfig; a value out of range is a usage error."""
    return _config(MethodConfig, args, base=_config(TrainConfig, args))


def _generate(kind: str, args, seed: int) -> tuple[Dataset, dict]:
    """A generated dataset from the --n, --d, --l and --hidden flags, and its
    manifest; a flag value out of range is a usage error."""
    if kind == "logical":
        n = args.N if args.N is not None else 20
        return _checked(gen_logical, n), {"kind": "logical", "n": n}
    spec = _config(SynthNetSpec, args, N=args.N if args.N is not None else 2000, seed=seed)
    manifest = {"kind": "synthetic", "n": spec.N, "d": spec.D, "l": spec.L,
                "hidden": spec.hidden_units, "seed": spec.seed}
    return gen_synthetic(spec), manifest


def _load_dataset(args) -> tuple[str, Dataset]:
    source = args.dataset
    # A negative seed is refused also where it goes unused: the logical
    # generator draws nothing, and a CSV dataset is not generated.
    _checked(at_least, "gen_seed", args.gen_seed, 0)
    if source in ("logical", "synthetic"):
        return source, _generate(source, args, args.gen_seed)[0]
    path = Path(source)
    if path.suffix.lower() != ".csv":
        raise UsageError(
            f"unknown dataset source {source!r}: expected 'logical', 'synthetic' or a .csv path"
        )
    if args.label_count is None:
        raise UsageError("--label-count is required for CSV datasets")
    return path.stem, _read_csv(path, args, "dataset")


def _read(what: str, path, load, *args):
    """load(path, *args), where a file that cannot be read (a missing file, a
    directory) is a data error naming it."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as e:
        raise ValueError(f"cannot read {what} file {path}: {e.strerror}") from None


def _read_csv(path: Path, args, what: str) -> Dataset:
    """The CSV file at path read with the --label-count and --labels-first flags."""
    _checked(at_least, "label_count", args.label_count, 0)
    return _read(what, path, load_csv, args.label_count, not args.labels_first)


def cmd_gen(args) -> int:
    out = Path(args.out)
    _checked(at_least, "seed", args.seed, 0)
    dataset, manifest = _generate(args.kind, args, args.seed)
    with _atomic_file(out) as tmp:
        save_csv(dataset, tmp)
    manifest_path = _write_manifest(out, manifest)
    print(f"wrote {out} ({dataset.n_rows} rows, {dataset.n_features} features, "
          f"{dataset.n_labels} labels) and {manifest_path}")
    return EXIT_OK


def _method(name: str) -> str:
    """name, where a name that is not a method is a usage error."""
    if name not in METHOD_NAMES:
        raise UsageError(f"unknown method {name!r}; expected one of {', '.join(METHOD_NAMES)}")
    return name


def _parse_methods(raw: str) -> list[str]:
    names = [_method(m.strip()) for m in raw.split(",") if m.strip()]
    if not names:
        raise UsageError("--methods must list at least one method")
    return names


def cmd_bench(args) -> int:
    _checked(at_least, "iters", args.iters, 1)
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must be strictly between 0 and 1")
    # The name starts each report file's name in the --out directory.
    if args.name is not None and (not args.name or {os.sep, os.altsep} & set(args.name)):
        raise UsageError(f"--name must be a file name without a path separator, got {args.name!r}")
    name, dataset = _load_dataset(args)
    if args.name:
        name = args.name
    # The name is written into the report files, so it must be UTF-8.
    _checked(check_utf8, name, "name" if args.name else "dataset")
    methods = _parse_methods(args.methods)
    cfg = _method_config(args)
    report = run_experiment(
        datasets=[(name, dataset)],
        methods=[(m, cfg) for m in methods],
        iterations=args.iters,
        split_fraction=args.split,
        master_seed=args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suffix, text in (("exactmatch.csv", report.metric_csv("exact")),
                         ("hamming.csv", report.metric_csv("hamming")),
                         ("report.txt", report.table_text())):
        with _atomic_file(out_dir / f"{name}-{suffix}") as tmp:
            tmp.write_text(text, encoding="utf-8")
    print(report.table_text())
    print(f"report files written to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    _, dataset = _load_dataset(args)
    _method(args.method)
    params = None
    if not args.no_standardize:
        params = fit_standardizer(dataset)
        dataset = apply_standardizer(params, dataset)
    model = train_method(args.method, dataset, _method_config(args))
    with _atomic_file(Path(args.out)) as tmp:
        save_model(
            model,
            tmp,
            feature_names=dataset.feature_names,
            label_names=dataset.label_names,
            standardizer=params,
        )
    print(f"trained {args.method} on {dataset.n_rows} rows; model saved to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, meta = _read("model", args.model, load_model)
    data = _read_csv(Path(args.data), args, "data")
    if data.n_features != model.input_dim:
        raise ValueError(
            f"model expects {model.input_dim} features but data has {data.n_features}"
        )
    trained_names = meta.get("feature_names")
    if trained_names is not None and data.feature_names != trained_names:
        j = next(j for j, (got, want) in enumerate(zip(data.feature_names, trained_names))
                 if got != want)
        raise ValueError(
            f"feature column {j + 1} of {args.data} is {data.feature_names[j]!r}, "
            f"but the model was trained on {trained_names[j]!r} there"
        )
    if meta["standardizer"] is not None:
        data = apply_standardizer(meta["standardizer"], data)
    preds = model.predict(data.X)
    label_names = meta.get("label_names") or [f"y{j + 1}" for j in range(preds.shape[1])]
    with _atomic_file(Path(args.out)) as tmp:
        tmp.write_bytes(_predictions_csv(label_names, preds))
    print(f"wrote {preds.shape[0]} prediction rows to {args.out}")
    return EXIT_OK


def _predictions_csv(label_names: list[str], bits: np.ndarray) -> bytes:
    """A header line of the label names, quoted as csv_line quotes them, and
    one line of comma-separated digits per row of a 0/1 matrix; the body is
    built as one byte array, not one string per cell."""
    n, width = bits.shape
    # Each row is its digits with a comma after all but the last, then a
    # newline; with no labels, a row is the newline alone.
    body = np.full((n, max(2 * width, 1)), ord(","), dtype=np.uint8)
    body[:, 0:2 * width:2] = bits + ord("0")
    body[:, -1] = ord("\n")
    return csv_line(label_names).encode("utf-8") + body.tobytes()


# Every argument of every subcommand with its argparse keywords.  A flag that
# sets a config field has the field's name as its dest; where the flag's own
# name differs from that in more than case, it is the metavar.
_ARGS = {
    "kind": dict(choices=["logical", "synthetic"]),
    "--dataset": dict(required=True, help="'logical', 'synthetic', or a path to a CSV file"),
    "--model": dict(required=True, help="saved model JSON"),
    "--data": dict(required=True, help="input CSV"),
    "--label-count": dict(type=int, help="number of label columns in the CSV "
                          "(predict: default 0, stripped from the input)"),
    "--labels-first": dict(action="store_true",
                           help="labels occupy the leading CSV columns instead of the trailing ones"),
    "--n": dict(type=int, dest="N", help="rows for a generated dataset"),
    "--d": dict(type=int, default=10, dest="D", help="features for the synthetic generator"),
    "--l": dict(type=int, default=10, dest="L", help="labels for the synthetic generator"),
    "--hidden": dict(type=int, default=100, dest="hidden_units", metavar="HIDDEN",
                     help="hidden units for the synthetic generator (0 = linear)"),
    "--gen-seed": dict(type=int, default=DEFAULT_SEED, help="seed for a generated dataset"),
    "--methods": dict(default=",".join(METHOD_NAMES),
                      help="comma list from: " + ",".join(METHOD_NAMES)),
    "--iters": dict(type=int, default=10),
    "--split": dict(type=float, default=0.6, help="train fraction of each shuffled split"),
    "--method": dict(required=True),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="master seed (gen: generator seed)"),
    "--h": dict(type=int, dest="synthetic_count", metavar="H",
                help="synthetic label count (default: per-method)"),
    "--hprime": dict(type=int, dest="indicator_count", metavar="HPRIME",
                     help="label-subset indicator count (default: 2x labels)"),
    "--subset-size": dict(type=int, default=MethodConfig.subset_size,
                          help="labels per indicator subset"),
    "--lr": dict(type=float, default=TrainConfig.learning_rate, dest="learning_rate",
                 metavar="LR", help="base learner step size"),
    "--epochs": dict(type=int, default=TrainConfig.epochs, help="base learner epochs"),
    "--l2": dict(type=float, default=TrainConfig.l2_penalty, dest="l2_penalty", metavar="L2",
                 help="base learner L2 penalty"),
    "--name": dict(help="report name (default: dataset name)"),
    "--no-standardize": dict(action="store_true",
                             help="train on raw features instead of standardized ones"),
    "--out": dict(required=True, help="output path: the CSV for gen and predict, the report "
                  "directory for bench, the model JSON for train"),
}

# The flag that sets each config field, found by its dest (argparse's default
# dest is the flag's name with '_' for '-'), and gen_logical's row count.
_FLAG_OF = {kw.get("dest", name[2:].replace("-", "_")): name
            for name, kw in _ARGS.items() if name.startswith("--")} | {"n_rows": "--n"}

_GENERATOR = "--n --d --l --hidden"
_DATASET = f"--dataset --label-count --labels-first {_GENERATOR} --gen-seed"
_METHOD = "--seed --h --hprime --subset-size --lr --epochs --l2"

# Each subcommand's help, its arguments in --help order and its defaults.
_COMMANDS = {
    "gen": ("generate a dataset CSV plus a manifest", f"kind {_GENERATOR} --seed --out",
            dict(func=cmd_gen)),
    "bench": ("run the shuffled multi-iteration benchmark",
              f"{_DATASET} --methods --iters --split {_METHOD} --name --out",
              dict(func=cmd_bench)),
    "train": ("train one method and save it as JSON",
              f"{_DATASET} --method {_METHOD} --no-standardize --out", dict(func=cmd_train)),
    "predict": ("predict labels for a CSV with a saved model",
                "--model --data --label-count --labels-first --out",
                dict(func=cmd_predict, label_count=0)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlcascade",
                     description="Multi-label classification benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (text, names, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in names.split():
            p.add_argument(name, **_ARGS[name])
        p.set_defaults(**defaults)
    return parser


# The parser main built on its first call; building one takes ~2 ms.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"mlcascade: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"mlcascade: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MethodFailure as e:
        print(f"mlcascade: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - defensive
        print(f"mlcascade: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
