"""Command-line front end: generate datasets, run benchmarks, train and predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthNetSpec,
    apply_standardizer,
    fit_standardizer,
    gen_logical,
    gen_synthetic,
    load_csv,
    save_csv,
)
from .evaluate import MethodFailure, run_experiment
from .logistic import TrainConfig
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


class DataError(Exception):
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


# The flag that sets each checked config field.  A config's error for a
# value out of range starts with the field's name; the usage error names the
# flag.
_FLAGS = {"learning_rate": "--lr", "epochs": "--epochs", "l2_penalty": "--l2",
          "synthetic_count": "--h", "indicator_count": "--hprime",
          "subset_size": "--subset-size", "D": "--d", "L": "--l", "N": "--n", "n_rows": "--n",
          "hidden_units": "--hidden", "seed": "--seed"}


def _usage_error(e: ValueError) -> UsageError:
    """A config's error for a field out of range, as a usage error naming its flag."""
    return UsageError(f"{_FLAGS[str(e).split()[0]]}: {e}")


def _check_seed(seed: int, flag: str) -> None:
    """A negative generator seed is a usage error naming its flag, --seed or
    --gen-seed (both set SynthNetSpec.seed), also where the seed goes unused:
    the logical generator draws nothing, and a CSV dataset is not generated."""
    if seed < 0:
        raise UsageError(f"{flag}: seed must be >= 0, got {seed}")


def _method_config(args) -> MethodConfig:
    """The method flags as a MethodConfig; a value out of range is a usage error."""
    try:
        base = TrainConfig(learning_rate=args.lr, epochs=args.epochs, l2_penalty=args.l2)
        return MethodConfig(synthetic_count=args.h, indicator_count=args.hprime,
                            subset_size=args.subset_size, base=base, seed=args.seed)
    except ValueError as e:
        raise _usage_error(e) from None


def _generate(kind: str, args, seed: int) -> tuple[Dataset, dict]:
    """A generated dataset from the --n, --d, --l and --hidden flags, and its
    manifest; a flag value out of range is a usage error."""
    try:
        if kind == "logical":
            n = args.n if args.n is not None else 20
            return gen_logical(n), {"kind": "logical", "n": n}
        spec = SynthNetSpec(D=args.d, L=args.l, N=args.n if args.n is not None else 2000,
                            hidden_units=args.hidden, seed=seed)
    except ValueError as e:
        raise _usage_error(e) from None
    manifest = {"kind": "synthetic", "n": spec.N, "d": spec.D, "l": spec.L,
                "hidden": spec.hidden_units, "seed": spec.seed}
    return gen_synthetic(spec), manifest


def _load_dataset(args) -> tuple[str, Dataset]:
    source = args.dataset
    _check_seed(args.gen_seed, "--gen-seed")
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


def _read_csv(path: Path, args, what: str) -> Dataset:
    """The CSV file at path read with the --label-count and --labels-first flags."""
    if args.label_count < 0:
        raise UsageError(f"--label-count must be >= 0, got {args.label_count}")
    try:
        return load_csv(path, args.label_count, labels_last=not args.labels_first)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None


def cmd_gen(args) -> int:
    out = Path(args.out)
    _check_seed(args.seed, "--seed")
    dataset, manifest = _generate(args.kind, args, args.seed)
    with _atomic_file(out) as tmp:
        save_csv(dataset, tmp)
    manifest_path = _write_manifest(out, manifest)
    print(f"wrote {out} ({dataset.n_rows} rows, {dataset.n_features} features, "
          f"{dataset.n_labels} labels) and {manifest_path}")
    return EXIT_OK


def _parse_methods(raw: str) -> list[str]:
    names = [m.strip() for m in raw.split(",") if m.strip()]
    if not names:
        raise UsageError("--methods must list at least one method")
    for m in names:
        if m not in METHOD_NAMES:
            raise UsageError(f"unknown method {m!r}; expected one of {', '.join(METHOD_NAMES)}")
    return names


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise UsageError("--iters must be >= 1")
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must be strictly between 0 and 1")
    name, dataset = _load_dataset(args)
    if args.name:
        name = args.name
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
    if args.method not in METHOD_NAMES:
        raise UsageError(
            f"unknown method {args.method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    if dataset.n_labels == 0:
        raise DataError("training data has no label columns")
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
    try:
        model, meta = load_model(args.model)
    except FileNotFoundError:
        raise DataError(f"model file not found: {args.model}") from None
    data = _read_csv(Path(args.data), args, "data")
    if data.n_features != model.input_dim:
        raise DataError(
            f"model expects {model.input_dim} features but data has {data.n_features}"
        )
    trained_names = meta.get("feature_names")
    if trained_names is not None and data.feature_names != trained_names:
        j = next(j for j, (got, want) in enumerate(zip(data.feature_names, trained_names))
                 if got != want)
        raise DataError(
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
    """A header line and one line of comma-separated digits per row of a 0/1
    matrix; the body is built as one byte array, not one string per cell."""
    n, width = bits.shape
    # Each row is its digits with a comma after all but the last, then a
    # newline; with no labels, a row is the newline alone.
    body = np.full((n, max(2 * width, 1)), ord(","), dtype=np.uint8)
    body[:, 0:2 * width:2] = bits + ord("0")
    body[:, -1] = ord("\n")
    return (",".join(label_names) + "\n").encode("utf-8") + body.tobytes()


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True,
                   help="'logical', 'synthetic', or a path to a CSV file")
    p.add_argument("--label-count", type=int, default=None,
                   help="number of label columns in a CSV dataset")
    p.add_argument("--labels-first", action="store_true",
                   help="labels occupy the leading CSV columns instead of the trailing ones")
    _add_generator_flags(p)
    p.add_argument("--gen-seed", type=int, default=DEFAULT_SEED,
                   help="seed for a generated dataset")


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="rows for a generated dataset")
    p.add_argument("--d", type=int, default=10, help="features for the synthetic generator")
    p.add_argument("--l", type=int, default=10, help="labels for the synthetic generator")
    p.add_argument("--hidden", type=int, default=100,
                   help="hidden units for the synthetic generator (0 = linear)")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--h", type=int, default=None,
                   help="synthetic label count (default: per-method)")
    p.add_argument("--hprime", type=int, default=None,
                   help="label-subset indicator count (default: 2x labels)")
    p.add_argument("--subset-size", type=int, default=MethodConfig.subset_size,
                   help="labels per indicator subset")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="base learner step size")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="base learner epochs")
    p.add_argument("--l2", type=float, default=TrainConfig.l2_penalty,
                   help="base learner L2 penalty")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlcascade",
                     description="Multi-label classification benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a dataset CSV plus a manifest")
    p_gen.add_argument("kind", choices=["logical", "synthetic"])
    _add_generator_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run the shuffled multi-iteration benchmark")
    _add_dataset_flags(p_bench)
    p_bench.add_argument("--methods", default=",".join(METHOD_NAMES),
                         help="comma list from: " + ",".join(METHOD_NAMES))
    p_bench.add_argument("--iters", type=int, default=10)
    p_bench.add_argument("--split", type=float, default=0.6,
                         help="train fraction of each shuffled split")
    _add_method_flags(p_bench)
    p_bench.add_argument("--name", default=None, help="report name (default: dataset name)")
    p_bench.add_argument("--out", required=True, help="output directory for report files")
    p_bench.set_defaults(func=cmd_bench)

    p_train = sub.add_parser("train", help="train one method and save it as JSON")
    _add_dataset_flags(p_train)
    p_train.add_argument("--method", required=True)
    _add_method_flags(p_train)
    p_train.add_argument("--no-standardize", action="store_true",
                         help="train on raw features instead of standardized ones")
    p_train.add_argument("--out", required=True, help="output model path (JSON)")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict labels for a CSV with a saved model")
    p_pred.add_argument("--model", required=True, help="saved model JSON")
    p_pred.add_argument("--data", required=True, help="input CSV")
    p_pred.add_argument("--label-count", type=int, default=0,
                        help="label columns present in the input CSV (stripped)")
    p_pred.add_argument("--labels-first", action="store_true")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.set_defaults(func=cmd_predict)

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
    except (DataError, ValueError, FileNotFoundError) as e:
        print(f"mlcascade: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MethodFailure as e:
        # A method rejecting its data (a diverging fit) is a data error.
        if isinstance(e.__cause__, ValueError):
            print(f"mlcascade: data error: {e}", file=sys.stderr)
            return EXIT_DATA
        print(f"mlcascade: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - defensive
        print(f"mlcascade: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
