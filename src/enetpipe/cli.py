"""Command-line interface.

Subcommands: generate, extract, train-cnn, select, evaluate, compare,
report. Settings resolve in three layers: built-in defaults, then a
line-based ``key = value`` config file (--config), then explicit flags.
``_SETTINGS`` is the one list of settings: each key's flag, config-file
parser and default come from it, and the defaults of the pipeline's keys
from PipelineConfig.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.

``main`` may be called any number of times in one process: it builds its
parser on the first call and parses every later argv with it, and a parse
keeps no state from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fanout, textio
from .cnn import (CnnConfig, _check_sgd_settings, cnn_init, cnn_train_sgd,
                  extract_image_features, load_cnn, save_cnn)
from .data import (SyntheticSpec, generate_synthetic, load_feature_csv,
                   load_volume_raw3d, save_feature_csv, standardize_columns,
                   validate_labels)
from .errors import (ConfigError, ContractError, DataError, EnetPipeError,
                     NumericalError)
from .patches import (DEFAULT_CENTER_COUNT, _check_center_count,
                      default_patch_centers, extract_patch_2_5d)
from .pipeline import (SELECTORS, PipelineConfig, compare_selectors,
                       fit_penalized, run_pipeline, signed_targets)
from .report import REPORT_FORMATS, emit_report, load_report_json
from .solvers import select_support

__all__ = ["main", "build_parser"]

class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _retain_value(text: str):
    """'0.95' keeps a variance fraction, '10' keeps a component count."""
    try:
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad retain value {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_PIPELINE_DEFAULTS = PipelineConfig()

# Every setting, in flag order: config key -> (value parser, default, help).
# The flag is the key with '-' for '_'; a boolean setting's flag takes no
# value and sets it. The keys PipelineConfig has pass to it by name.
_SETTINGS = {
    "seed": (int, _PIPELINE_DEFAULTS.seed, None),
    "k_folds": (int, _PIPELINE_DEFAULTS.k_folds, None),
    "selector": (str, _PIPELINE_DEFAULTS.selector, None),
    "lambda1": (float, _PIPELINE_DEFAULTS.lambda1, None),
    "lambda2": (float, _PIPELINE_DEFAULTS.lambda2, None),
    "no_pca": (_parse_bool, not _PIPELINE_DEFAULTS.use_pca, None),
    "pca_retain": (_retain_value, _PIPELINE_DEFAULTS.pca_retain, None),
    "elm_gamma": (float, _PIPELINE_DEFAULTS.elm_gamma, None),
    "elm_ridge": (float, _PIPELINE_DEFAULTS.elm_ridge, None),
    "holdout": (float, _PIPELINE_DEFAULTS.holdout,
                "test fraction for a fixed split instead of k-fold"),
    "header": (_parse_bool, False, "input CSV has a header row"),
    "out_dir": (str, ".", None),
}


def load_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines skip."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _SETTINGS[key][0](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve_settings(args) -> dict:
    settings = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if args.config:
        settings.update(load_config_file(args.config))
    for key in _SETTINGS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


def _add_global_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="key = value settings file; flags override it")
    for key, (parse, _, help_text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _parse_bool:
            parser.add_argument(flag, dest=key, action="store_const",
                                const=True, help=help_text)
        else:
            parser.add_argument(
                flag, dest=key, type=parse, help=help_text,
                choices=SELECTORS if key == "selector" else None)


def build_parser() -> _Parser:
    parser = _Parser(prog="enetpipe",
                     description="Sparse feature selection and kernel "
                                 "classification pipeline.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    _add_global_flags(p)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--groups", type=int, default=3,
                   help="number of informative correlated groups")
    p.add_argument("--group-size", type=int, default=3)
    p.add_argument("--correlation", type=float, default=0.8)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--n-noise", type=int, default=20,
                   help="count of pure-noise feature columns")

    p = sub.add_parser("extract", help="volumes + trained net -> feature CSV")
    _add_global_flags(p)
    p.add_argument("volumes", nargs="+", metavar="VOLUME")
    p.add_argument("--net", required=True, help="trained network file")
    p.add_argument("--centers", type=int, default=DEFAULT_CENTER_COUNT)
    p.add_argument("--labels", help="one label per line, appended as last column")

    p = sub.add_parser("train-cnn", help="train the patch feature network")
    _add_global_flags(p)
    p.add_argument("--manifest", required=True,
                   help="CSV of volume_path,label rows")
    p.add_argument("--centers", type=int, default=DEFAULT_CENTER_COUNT)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=16)

    p = sub.add_parser("select", help="fit a sparse selector, write coefficients")
    _add_global_flags(p)
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--label-column", type=int, default=-1)

    p = sub.add_parser("evaluate", help="k-fold evaluation of one selector")
    _add_global_flags(p)
    p.add_argument("--features", required=True)
    p.add_argument("--label-column", type=int, default=-1)
    p.add_argument("--group", default="synthetic")

    p = sub.add_parser("compare", help="paired lasso vs elastic-net comparison")
    _add_global_flags(p)
    p.add_argument("--features", required=True)
    p.add_argument("--label-column", type=int, default=-1)
    p.add_argument("--group", default="synthetic")
    p.add_argument("--baseline", default="lasso", choices=SELECTORS)

    p = sub.add_parser("report", help="re-emit formats from a report JSON")
    _add_global_flags(p)
    p.add_argument("report_json", metavar="REPORT_JSON")
    p.add_argument("--format", dest="fmt", default="all",
                   choices=list(REPORT_FORMATS) + ["all"])
    return parser


def _pipeline_config(settings, group: str) -> PipelineConfig:
    return PipelineConfig(
        use_pca=not settings["no_pca"], group_name=group,
        **{key: value for key, value in settings.items()
           if hasattr(_PIPELINE_DEFAULTS, key)})


def _out_dir(settings) -> Path:
    out = Path(settings["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_features(args, settings):
    return load_feature_csv(args.features, label_column=args.label_column,
                            skip_header=settings["header"])


def _cmd_generate(args, settings) -> int:
    spec = SyntheticSpec(
        n_samples=args.n_samples,
        n_informative_groups=args.groups,
        group_size=args.group_size,
        within_group_correlation=args.correlation,
        noise_std=args.noise_std,
        n_noise_features=args.n_noise,
        seed=settings["seed"],
    )
    X, labels, support = generate_synthetic(spec)
    out = _out_dir(settings)
    save_feature_csv(out / "features.csv", X, labels=labels)
    textio.write_blocks(out / "ground_truth_support.txt",
                        {"ground_truth_support": support.astype(np.float64)})
    print(f"wrote {out / 'features.csv'}: {X.shape[0]} samples x "
          f"{X.shape[1]} features (labels in last column)")
    print(f"wrote {out / 'ground_truth_support.txt'}: "
          f"{support.size} informative columns")
    return 0


def _cmd_extract(args, settings) -> int:
    # checked before any volume is read: extraction takes seconds a volume
    _check_center_count(args.centers)
    labels = None
    if args.labels:
        labels = validate_labels(
            textio.load_matrix(args.labels, args.labels, encoding="ascii"),
            len(args.volumes))
    net = load_cnn(args.net)

    def features_of(path):
        vol = load_volume_raw3d(path)
        centers = default_patch_centers(vol.voxels.shape, count=args.centers)
        return extract_image_features(net, vol, centers)

    X = np.vstack(fanout._fan_out(features_of, args.volumes, fanout._WORKERS))
    out = _out_dir(settings)
    save_feature_csv(out / "features.csv", X, labels=labels)
    print(f"wrote {out / 'features.csv'}: {X.shape[0]} volumes x "
          f"{X.shape[1]} features")
    return 0


def _cmd_train_cnn(args, settings) -> int:
    # the settings and every line are checked before any volume is read
    _check_center_count(args.centers)
    _check_sgd_settings(args.epochs, args.lr, args.batch_size)
    entries = []
    manifest = textio.read_ascii(args.manifest).splitlines()
    for lineno, line in enumerate(manifest, start=1):
        if not line.strip():
            continue
        path, _, label = line.rpartition(",")
        try:
            value = float(label)
        except ValueError:
            value = None
        if not path or value is None or not np.isfinite(value):
            raise DataError(f"{args.manifest}:{lineno}: expected "
                            "'volume_path,label' with a finite label")
        entries.append((path.strip(), value))
    if not entries:
        raise DataError(f"manifest {args.manifest} lists no volumes")
    # CnnConfig rejects a one-class manifest (exit 1) before any volume
    classes = np.unique([value for _, value in entries])
    net = cnn_init(CnnConfig(n_classes=classes.size), seed=settings["seed"])
    patches, labels = [], []
    for path, value in entries:
        vol = load_volume_raw3d(path)
        centers = default_patch_centers(vol.voxels.shape, count=args.centers)
        for center in centers:
            patches.append(extract_patch_2_5d(vol, center))
            labels.append(value)
    label_idx = np.searchsorted(classes, labels)
    result = cnn_train_sgd(net, np.stack(patches), label_idx,
                           epochs=args.epochs, learning_rate=args.lr,
                           seed=settings["seed"], batch_size=args.batch_size)
    out = _out_dir(settings)
    save_cnn(out / "cnn.txt", result.network)
    for epoch, loss in enumerate(result.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss:.6f}")
    if result.diverged:
        print("training diverged; kept the last finite checkpoint")
    print(f"wrote {out / 'cnn.txt'}")
    return 0


def _cmd_select(args, settings) -> int:
    cfg = _pipeline_config(settings, "select")
    if cfg.selector == "none":
        raise ConfigError("select needs a sparse selector; pick lasso, "
                          "elastic_net_cd, or elastic_net_svm")
    X, labels = _load_features(args, settings)
    X_std, _ = standardize_columns(X)
    result, lambda1, _, notes = fit_penalized(X_std, signed_targets(labels),
                                              cfg, seed=cfg.seed)
    for note in notes:
        print(note, file=sys.stderr)
    if cfg.lambda1 is None:
        print(f"lambda1 = {lambda1:.6g} (validation grid)")
    out = _out_dir(settings)
    textio.write_blocks(out / "coefficients.txt",
                        {"coefficients": result.coefficients})
    support = select_support(result.coefficients, cfg.min_support_magnitude)
    textio.write_blocks(out / "support.txt",
                        {"support": support.astype(np.float64)})
    print(f"objective {result.objective_value:.6g}, "
          f"kkt violation {result.kkt_violation:.3g}, "
          f"support size {support.size} of {X.shape[1]}")
    print(f"wrote {out / 'coefficients.txt'} and {out / 'support.txt'}")
    return 0


def _emit_all(report, out: Path, formats=None) -> None:
    for fmt in formats or REPORT_FORMATS:
        target = emit_report(report, fmt, out)
        print(f"wrote {target}")


def _cmd_evaluate(args, settings) -> int:
    """The evaluate command, and compare, which adds its --baseline arm."""
    cfg = _pipeline_config(settings, args.group)
    X, labels = _load_features(args, settings)
    if args.command == "compare":
        report = compare_selectors(cfg, X, labels, baseline=args.baseline)
    else:
        report = run_pipeline(cfg, X, labels)
    out = _out_dir(settings)
    _emit_all(report, out)
    print()
    print((out / "report.txt").read_text(), end="")
    return 0


def _cmd_report(args, settings) -> int:
    report = load_report_json(args.report_json)
    _emit_all(report, _out_dir(settings),
              None if args.fmt == "all" else [args.fmt])
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "extract": _cmd_extract,
    "train-cnn": _cmd_train_cnn,
    "select": _cmd_select,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_evaluate,
    "report": _cmd_report,
}


@functools.cache
def _main_parser() -> _Parser:
    """build_parser()'s parser, built once per process for main."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        settings = _resolve_settings(args)
        return _COMMANDS[args.command](args, settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ContractError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EnetPipeError as exc:
        # base-class failures such as every fold failing
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
