"""The benchmark's workloads: how each builds its inputs from a seed, which
CLI commands one round runs, and how the outputs of a round are checked.

Every workload keeps a pool of input sets, each built from its own sub-seed,
and its rounds walk the pool in order. Spreading a run over several input
sets keeps the run's medians from hanging on one draw of the data.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from enetpipe.pipeline import holdout_split, kfold_split

N_SAMPLES = 200


def sub_seed(seed: int, index: int) -> int:
    """Seed of input set `index` of a run seeded with `seed`."""
    return seed * 1000 + index


@dataclass
class Tally:
    """Operations attempted and failed, with a line for each failure.

    An operation is one CLI command or one fold of one selector arm. A
    command fails on a non-zero exit code or on a failed check of its
    outputs; a fold fails when the report records a failure for it.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


@dataclass
class RoundOutcome:
    accuracy: float | None = None
    baseline_accuracy: float | None = None
    latency_ms: float | None = None
    digest: str | None = None


def exit_problems(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def fold_hash(folds) -> str:
    """sha256 over the folds' int64 index bytes, each followed by b'|'."""
    digest = hashlib.sha256()
    for fold in folds:
        digest.update(np.asarray(fold, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def _mask_times(value):
    if isinstance(value, dict):
        return {k: None if "time" in k else _mask_times(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_times(v) for v in value]
    return value


def report_digest(payload) -> str:
    """Digest of a report with every timing field masked out."""
    text = json.dumps(_mask_times(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_compare(what: str, code: int, out_dir: Path, folds, baseline: str,
                  proposed: str, expected_digest, tally: Tally) -> RoundOutcome:
    """Record a `compare` command and each fold of both its arms.

    The command passes when it exits 0 and its report.json parses, names
    the two arms, carries the fold_hash of `folds`, and, on inputs seen in
    an earlier round, has the same digest as then.
    """
    problems = exit_problems(code)
    try:
        payload = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        tally.record(what, problems + [f"report.json unreadable: {exc}"])
        return RoundOutcome()
    comp = payload.get("comparison") or {}
    arms = {baseline: comp.get("baseline_folds", []),
            proposed: payload.get("folds", [])}
    if (comp.get("baseline_selector"), payload.get("selector")) != (
            baseline, proposed):
        problems.append("report names the wrong selector arms")
    if payload.get("fold_hash") != fold_hash(folds):
        problems.append("fold_hash differs from the recomputed folds")
    for selector, arm_folds in arms.items():
        if len(arm_folds) != len(folds):
            problems.append(f"{selector} arm has {len(arm_folds)} folds, "
                            f"expected {len(folds)}")
    digest = report_digest(payload)
    if expected_digest not in (None, digest):
        problems.append("report differs from an earlier round on these inputs")
    tally.record(what, problems)
    for selector, arm_folds in arms.items():
        for fold in arm_folds:
            failure = fold.get("failure")
            tally.record(f"{what}: {selector} fold {fold.get('fold_index')}",
                         [failure] if failure else [])
    return RoundOutcome(accuracy=payload.get("mean_accuracy"),
                        baseline_accuracy=comp.get("baseline_mean_accuracy"),
                        latency_ms=payload.get("mean_time_ms"),
                        digest=digest)


def feature_csv_problems(path: Path, rows: int, fields: int,
                         labels=None) -> list:
    """Problems with a feature CSV's shape, and its label column if given."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"{path.name} unreadable: {exc}"]
    widths = {line.count(",") + 1 for line in lines}
    if len(lines) != rows or widths != {fields}:
        return [f"{path.name} is not {rows} rows of {fields} fields"]
    if labels is not None and [float(line.rpartition(",")[2])
                               for line in lines] != list(labels):
        return [f"{path.name} has the wrong label column"]
    return []


class Synthetic:
    """Shared shape of the two workloads built by `enetpipe generate`."""

    name: str
    pool_size: int
    generate_args: tuple
    n_features: int
    # Why a layer or span is absent from the trace (see tracing.py).
    absent = {
        "cnn": "no volumes: the inputs are a synthetic feature CSV",
        "patches": "no volumes: the inputs are a synthetic feature CSV",
        "textio.read_blocks": "no network is loaded",
        "data.load_volume_raw3d": "no volumes are read",
        "cli.evaluate": "the workload runs compare, not evaluate",
        "cli.extract": "no volumes: the inputs are a synthetic feature CSV",
        "cli.train-cnn": "no volumes: the inputs are a synthetic feature CSV",
    }

    def build(self, cli, seed: int, directory: Path) -> dict:
        code = cli(["generate", *self.generate_args, "--seed", str(seed),
                    "--out-dir", str(directory)])
        return {"seed": seed, "features": directory / "features.csv",
                "code": code}

    def check_inputs(self, inputs, tally: Tally) -> None:
        tally.record(f"generate seed {inputs['seed']}",
                     exit_problems(inputs["code"]) + feature_csv_problems(
                         inputs["features"], N_SAMPLES, self.n_features + 1))


class NarrowCompare(Synthetic):
    """Paired lasso / SVM-route elastic net comparison, 10-fold, on the
    README's default dataset (200 x 29), PCA on. lambda1 is fixed at the
    README's 0.05, so each fold makes one SVM-route fit, whose budget search
    does most of the work. With the per-fold lambda search instead, the fit
    at the top of the grid runs for 1-6 s depending on the data, and runs
    of this length could not tell a change from the spread between seeds."""

    name = "narrow_compare"
    pool_size = 20
    k_folds = 10
    lambda1 = 0.05
    generate_args = ("--n-samples", str(N_SAMPLES), "--groups", "3",
                     "--group-size", "3", "--correlation", "0.8",
                     "--noise-std", "0.3", "--n-noise", "20")
    n_features = 29

    def commands(self, inputs, out: Path):
        return [["compare", "--features", str(inputs["features"]),
                 "--selector", "elastic_net_svm", "--baseline", "lasso",
                 "--lambda1", str(self.lambda1), "--k-folds", str(self.k_folds),
                 "--seed", str(inputs["seed"]), "--out-dir", str(out)]]

    def check(self, inputs, out: Path, codes, expected_digest,
              tally: Tally) -> RoundOutcome:
        folds = kfold_split(N_SAMPLES, self.k_folds, inputs["seed"])
        return check_compare(f"compare seed {inputs['seed']}", codes[0], out,
                             folds, "lasso", "elastic_net_svm",
                             expected_digest, tally)


class WideEnet(Synthetic):
    """Elastic net by coordinate descent on 200 x 1100 (p > n, correlated
    groups), no PCA, one holdout split. Wider than 1024 columns, so CD takes
    its residual branch. The ridge weight is fixed at 2.0: at the default
    0.5 * lambda1 the smallest grid point alone runs for tens of seconds,
    and a round this short can land in a quiet moment of a shared host.
    The baseline arm selects nothing (the kernel classifier on all 1100
    columns): a lasso arm, with no ridge term, would meet the same slow fits
    at the bottom of the lambda grid."""

    name = "wide_enet"
    pool_size = 12
    holdout = 0.5
    lambda2 = 2.0
    generate_args = ("--n-samples", str(N_SAMPLES), "--groups", "10",
                     "--group-size", "5", "--correlation", "0.8",
                     "--noise-std", "0.3", "--n-noise", "1050")
    n_features = 1100
    absent = {
        **Synthetic.absent,
        "sven": "the selector is elastic_net_cd; the SVM route is not called",
        "pca": "the workload passes --no-pca",
    }

    def commands(self, inputs, out: Path):
        return [["compare", "--features", str(inputs["features"]),
                 "--no-pca", "--selector", "elastic_net_cd",
                 "--baseline", "none", "--holdout", str(self.holdout),
                 "--lambda2", str(self.lambda2), "--seed", str(inputs["seed"]),
                 "--out-dir", str(out)]]

    def check(self, inputs, out: Path, codes, expected_digest,
              tally: Tally) -> RoundOutcome:
        _, test = holdout_split(N_SAMPLES, self.holdout, inputs["seed"])
        return check_compare(f"compare seed {inputs['seed']}", codes[0], out,
                             [test], "none", "elastic_net_cd",
                             expected_digest, tally)


RAW3D_MAGIC = b"R3D1"
FEATURES_PER_PATCH = 1024


def write_raw3d(path: Path, voxels: np.ndarray) -> None:
    """RAW3D: magic, three little-endian u32 dims, float32 voxels x-fastest."""
    with open(path, "wb") as fh:
        fh.write(RAW3D_MAGIC)
        fh.write(struct.pack("<III", *voxels.shape))
        fh.write(np.ascontiguousarray(voxels.transpose(2, 1, 0), "<f4").tobytes())


class VolumeFeatures:
    """The imaging front end: train the patch network for one epoch on two
    volumes, cut CNN features from every volume, then compare lasso with
    CD elastic net under 5-fold (PCA on, so the selectors see few columns).
    Class-1 volumes carry a bright Gaussian blob near the centre, so the
    classifier has something to find."""

    name = "volume_features"
    pool_size = 4
    n_volumes = 20
    side = 64
    centers = 27
    k_folds = 5
    blob_amplitude = 8.0
    blob_sigma = 6.0
    absent = {
        "sven": "the selector is elastic_net_cd; the SVM route is not called",
        "cli.evaluate": "the workload runs compare, not evaluate",
    }

    def build(self, cli, seed: int, directory: Path) -> dict:
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(self.n_volumes) % 2)
        grid = np.arange(self.side) - (self.side - 1) / 2.0
        paths = []
        for index, label in enumerate(labels):
            voxels = rng.standard_normal((self.side,) * 3)
            if label:
                dx, dy, dz = rng.uniform(-6.0, 6.0, size=3)
                sq = ((grid[:, None, None] - dx) ** 2
                      + (grid[None, :, None] - dy) ** 2
                      + (grid[None, None, :] - dz) ** 2)
                voxels += self.blob_amplitude * np.exp(
                    -sq / (2.0 * self.blob_sigma ** 2))
            path = directory / f"vol{index:02d}.raw3d"
            write_raw3d(path, voxels)
            paths.append(path)
        first = [int(np.flatnonzero(labels == c)[0]) for c in (0, 1)]
        manifest = directory / "manifest.csv"
        manifest.write_text("".join(f"{paths[i]},{labels[i]}\n" for i in first))
        label_file = directory / "labels.txt"
        label_file.write_text("".join(f"{v}\n" for v in labels))
        return {"seed": seed, "volumes": paths, "labels": labels,
                "manifest": manifest, "label_file": label_file}

    def commands(self, inputs, out: Path):
        seed, centers = str(inputs["seed"]), str(self.centers)
        net = out / "cnn.txt"
        return [
            ["train-cnn", "--manifest", str(inputs["manifest"]),
             "--epochs", "1", "--centers", centers, "--seed", seed,
             "--out-dir", str(out)],
            ["extract", *map(str, inputs["volumes"]), "--net", str(net),
             "--centers", centers, "--labels", str(inputs["label_file"]),
             "--out-dir", str(out)],
            ["compare", "--features", str(out / "features.csv"),
             "--selector", "elastic_net_cd", "--baseline", "none",
             "--k-folds", str(self.k_folds), "--seed", seed,
             "--out-dir", str(out)],
        ]

    def check_inputs(self, inputs, tally: Tally) -> None:
        """The volumes come from this file, not from a CLI command."""

    def check(self, inputs, out: Path, codes, expected_digest,
              tally: Tally) -> RoundOutcome:
        seed = inputs["seed"]
        net = out / "cnn.txt"
        tally.record(f"train-cnn seed {seed}", exit_problems(codes[0]) + (
            [] if net.is_file() else ["no cnn.txt"]))
        tally.record(f"extract seed {seed}", exit_problems(codes[1])
                     + feature_csv_problems(
                         out / "features.csv", self.n_volumes,
                         self.centers * FEATURES_PER_PATCH + 1,
                         labels=inputs["labels"]))
        folds = kfold_split(self.n_volumes, self.k_folds, seed)
        return check_compare(f"compare seed {seed}", codes[2], out, folds,
                             "none", "elastic_net_cd", expected_digest, tally)


WORKLOADS = {w.name: w for w in (NarrowCompare, WideEnet, VolumeFeatures)}
