import io
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import enetpipe.data
import enetpipe.fanout
from enetpipe import (PortableRng, SyntheticSpec, Volume3D,
                      apply_standardization, generate_synthetic,
                      load_feature_csv, load_volume_raw3d, save_feature_csv,
                      standardize_columns)
from enetpipe.errors import (ConfigError, DataFormatError, DimensionError,
                             InsufficientDataError)
from enetpipe.textio import FLOAT_FORMAT

from helpers import write_volume_raw3d


class TestFeatureCsv:
    def test_round_trip_without_labels(self, tmp_path):
        X = PortableRng(1).normal_matrix(5, 3)
        path = tmp_path / "f.csv"
        save_feature_csv(path, X)
        loaded, labels = load_feature_csv(path)
        np.testing.assert_array_equal(loaded, X)
        assert labels is None

    def test_round_trip_with_labels(self, tmp_path):
        X = PortableRng(2).normal_matrix(6, 2)
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        path = tmp_path / "f.csv"
        save_feature_csv(path, X, labels=y)
        loaded, labels = load_feature_csv(path, label_column=-1)
        np.testing.assert_array_equal(loaded, X)
        np.testing.assert_array_equal(labels, y)

    def test_label_column_by_position(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("9,1,2\n8,3,4\n")
        X, labels = load_feature_csv(path, label_column=0)
        np.testing.assert_array_equal(labels, [9.0, 8.0])
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_skip_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        X, _ = load_feature_csv(path, skip_header=True)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_without_flag_is_a_data_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_feature_csv(path)

    @pytest.mark.parametrize("content", [
        "1,2\n3\n",            # ragged
        "1,x\n",               # non-numeric
        "1,inf\n",             # non-finite
        "",                    # empty
        "1,2\n \n3,4\n",       # whitespace-only line
        "# comment\n1,2\n",    # no comment syntax
        "1,2\n3,nan\n",        # non-finite cell in the label column
        "1,2\n3,4\u00e9\n",    # non-ASCII
    ])
    def test_malformed_inputs(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(DataFormatError):
            load_feature_csv(path)
        with pytest.raises(DataFormatError):
            load_feature_csv(path, label_column=-1)

    def test_non_finite_cell_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,-inf\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            load_feature_csv(path, skip_header=True)

    def test_crlf_line_endings_load(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"1,2,-1\r\n3,4,1\r\n")
        X, labels = load_feature_csv(path, label_column=-1)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(labels, [-1.0, 1.0])

    @settings(derandomize=True, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_is_exact_for_any_finite_matrix(self, tmp_path_factory,
                                                        X):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        save_feature_csv(path, X)
        loaded, _ = load_feature_csv(path)
        assert loaded.shape == X.shape
        assert loaded.tobytes() == X.tobytes()

    def test_label_column_alone_leaves_no_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1\n-1\n")
        with pytest.raises(DimensionError):
            load_feature_csv(path, label_column=0)

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n")
        with pytest.raises(ConfigError):
            load_feature_csv(path, label_column=5)


# pytest's process runs OpenBLAS's thread pool, beside which the writer
# does not fork; these tests force the thread gate open, and Python 3.12
# and later warn on such a fork
@pytest.mark.filterwarnings(
    "ignore:This process .*is multi-threaded, use of fork:DeprecationWarning")
class TestFeatureCsvFanOut:
    """From _CSV_FAN_OUT_MIN_VALUES values on, save_feature_csv formats
    contiguous row blocks on forked processes; the file has np.savetxt's
    bytes for any number of them."""

    @pytest.fixture(autouse=True)
    def _forks(self, monkeypatch):
        monkeypatch.setattr(enetpipe.fanout, "_one_thread", lambda: True)
        self.forks = 0
        real = os.fork

        def counted():
            self.forks += 1
            return real()

        monkeypatch.setattr(os, "fork", counted)

    @staticmethod
    def _matrix(rows: int, values: int, seed: int = 3) -> np.ndarray:
        """rows x ceil(values / rows) finite doubles over many decades,
        signed zeros and integers among them."""
        rng = np.random.default_rng(seed)
        shape = (rows, -(-values // rows))
        X = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                               shape)
        X.flat[::7] = np.round(X.flat[::7] * 1e-300)
        X.flat[::11] = -0.0
        return X

    def _written(self, tmp_path, monkeypatch, workers, X, labels=None):
        """The bytes save_feature_csv writes with `workers` usable CPUs;
        no child, descriptor or other file outlives the call."""
        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", workers)
        folder = tmp_path / f"out{workers}"
        folder.mkdir()
        fds = sorted(os.listdir("/proc/self/fd"))
        save_feature_csv(folder / "f.csv", X, labels=labels)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert os.listdir(folder) == ["f.csv"]
        return (folder / "f.csv").read_bytes()

    @staticmethod
    def _savetxt(X, labels=None) -> bytes:
        if labels is not None:
            X = np.column_stack([X, labels])
        out = io.BytesIO()
        np.savetxt(out, X, fmt=FLOAT_FORMAT, delimiter=",")
        return out.getvalue()

    @pytest.mark.parametrize("rows, above", [
        (9, False), (9, True), (1000, True), (2, True), (1, True)],
        ids=["below", "above", "short-rows", "two-rows", "one-row"])
    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_are_savetxt_bytes(self, tmp_path, monkeypatch, workers,
                                     rows, above, labelled):
        floor = enetpipe.data._CSV_FAN_OUT_MIN_VALUES
        X = self._matrix(rows, floor if above else floor // 10)
        labels = np.arange(rows) % 2 if labelled else None
        assert (X.size + labelled * rows >= floor) == above
        got = self._written(tmp_path, monkeypatch, workers, X, labels)
        assert got == self._savetxt(X, labels)
        # a process for each block, never more than one a row
        assert self.forks == (min(workers, rows) - 1 if above else 0)

    @pytest.mark.parametrize("ending", ["exit", "kill", "no fork"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_block_no_child_delivers_is_written_here(
            self, tmp_path, monkeypatch, workers, ending):
        parent = os.getpid()
        real = enetpipe.data.write_rows

        def write_rows(fh, rows, delimiter):
            if os.getpid() != parent:
                # a child writes part of its block, then ends
                real(fh, rows[:1], delimiter)
                fh.flush()
                if ending == "exit":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(fh, rows, delimiter)

        def failing_fork():
            raise OSError("no fork here")

        monkeypatch.setattr(enetpipe.data, "write_rows", write_rows)
        if ending == "no fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        X = self._matrix(7, enetpipe.data._CSV_FAN_OUT_MIN_VALUES)
        got = self._written(tmp_path, monkeypatch, workers, X)
        assert got == self._savetxt(X)
        if ending != "no fork":
            assert self.forks == workers - 1


class TestVolumeRaw3d:
    def test_round_trip(self, tmp_path):
        # voxels are float32 on disk, so quantize before comparing exactly
        vox = PortableRng(3).normals(4 * 5 * 6).reshape(4, 5, 6)
        vox = vox.astype(np.float32).astype(np.float64)
        path = tmp_path / "v.r3d"
        write_volume_raw3d(path, Volume3D(voxels=vox))
        loaded = load_volume_raw3d(path)
        np.testing.assert_array_equal(loaded.voxels, vox)

    def test_x_fastest_layout_on_disk(self, tmp_path):
        vox = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        path = tmp_path / "v.r3d"
        write_volume_raw3d(path, Volume3D(voxels=vox))
        blob = path.read_bytes()
        first_two = np.frombuffer(blob, dtype="<f4", offset=16, count=2)
        # x index varies fastest: voxel (1,0,0) follows (0,0,0)
        np.testing.assert_array_equal(first_two, [vox[0, 0, 0], vox[1, 0, 0]])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "v.r3d"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            load_volume_raw3d(path)


class TestStandardization:
    def test_postconditions(self):
        X = PortableRng(4).normal_matrix(30, 5) * 3.0 + 1.5
        out, record = standardize_columns(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose((out**2).sum(axis=0), 30.0, rtol=1e-12)
        assert not record.degenerate.any()

    def test_constant_column_goes_degenerate(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        out, record = standardize_columns(X)
        assert record.degenerate[0] and not record.degenerate[1]
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_apply_matches_training_transform(self):
        X = PortableRng(5).normal_matrix(20, 3)
        out, record = standardize_columns(X)
        np.testing.assert_allclose(apply_standardization(record, X), out,
                                   atol=1e-14)

    def test_apply_dimension_mismatch(self):
        _, record = standardize_columns(PortableRng(6).normal_matrix(5, 2))
        with pytest.raises(DimensionError):
            apply_standardization(record, np.zeros((3, 4)))

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            standardize_columns(np.ones((1, 3)))


class TestSyntheticGenerator:
    def test_shapes_and_support(self):
        spec = SyntheticSpec(n_samples=50, n_informative_groups=2,
                             group_size=3, within_group_correlation=0.5,
                             noise_std=0.1, n_noise_features=4, seed=0)
        X, labels, support = generate_synthetic(spec)
        assert X.shape == (50, 10)
        np.testing.assert_array_equal(support, np.arange(6))
        assert set(np.unique(labels)) == {-1.0, 1.0}

    def test_deterministic(self):
        spec = SyntheticSpec(n_samples=30, n_informative_groups=1,
                             group_size=2, within_group_correlation=0.9,
                             noise_std=0.0, n_noise_features=1, seed=42)
        X1, y1, _ = generate_synthetic(spec)
        X2, y2, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)

    def test_within_group_correlation_is_close_to_rho(self):
        spec = SyntheticSpec(n_samples=4000, n_informative_groups=1,
                             group_size=2, within_group_correlation=0.8,
                             noise_std=0.0, n_noise_features=0, seed=9)
        X, _, _ = generate_synthetic(spec)
        r = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        assert abs(r - 0.8) < 0.05

    def test_null_spec_labels_are_balanced_coin_flips(self):
        spec = SyntheticSpec(n_samples=2000, n_informative_groups=0,
                             group_size=0, within_group_correlation=0.0,
                             noise_std=0.0, n_noise_features=3, seed=17)
        _, labels, support = generate_synthetic(spec)
        assert support.size == 0
        frac = np.mean(labels == 1.0)
        assert 0.45 < frac < 0.55

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_samples=0, n_informative_groups=1, group_size=1,
                          within_group_correlation=0.5, noise_std=0.1,
                          n_noise_features=1, seed=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_samples=10, n_informative_groups=1, group_size=1,
                          within_group_correlation=1.0, noise_std=0.1,
                          n_noise_features=1, seed=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_samples=10, n_informative_groups=0, group_size=0,
                          within_group_correlation=0.0, noise_std=0.0,
                          n_noise_features=0, seed=0)

