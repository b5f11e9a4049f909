import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from enetpipe import (PortableRng, SyntheticSpec, Volume3D,
                      apply_standardization, generate_synthetic,
                      load_feature_csv, load_volume_raw3d, save_feature_csv,
                      standardize_columns)
from enetpipe.errors import (ConfigError, DataFormatError, DimensionError,
                             InsufficientDataError)

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

