"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line (run with ``-v -s`` to see them as they go).
Expected values come from independent oracles computed inside the test,
never from the implementation under test.
"""

import math
import time
from pathlib import Path

import numpy as np

import helpers
from enetpipe import (CnnConfig, PenaltyConfig, PipelineConfig, PortableRng,
                      SyntheticSpec, Volume3D, accuracy, cnn_init,
                      compare_selectors, default_patch_centers,
                      elastic_net_fit_cd, elastic_net_fit_svm_reduction,
                      elm_predict, elm_train, extract_image_features,
                      generate_synthetic, kfold_split, kkt_violation,
                      lasso_fit, pca_fit, pca_transform,
                      predicted_labels, run_pipeline, select_support,
                      stddev_population)
from enetpipe.cnn import cnn_loss_grad
from enetpipe.report import emit_report, report_to_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def _verdict(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_lasso_matches_independent_grid_search():
    start = time.perf_counter()
    rng = PortableRng(401)
    worst = 0.0
    for i in range(200):
        n = 4 + rng.integer_below(7)
        m = 1 + rng.integer_below(3)
        X, y = helpers.regression_instance(seed=1000 + i, n=n, m=m)
        lam_max = float(np.max(np.abs(X.T @ y))) / n
        lam = (0.1 + 0.8 * rng.random()) * lam_max
        fit = lasso_fit(X, y, PenaltyConfig(lambda1=lam))
        oracle = helpers.grid_search_lasso_objective(X, y, lam)
        worst = max(worst, abs(fit.objective_value - oracle))
    elapsed = time.perf_counter() - start
    _verdict(1, worst <= 1e-6 and elapsed < 60.0,
             f"200 instances, max objective gap {worst:.2e} vs grid oracle "
             f"(limit 1e-6) in {elapsed:.1f}s (limit 60s)")


def test_criterion_02_elastic_net_with_zero_ridge_is_lasso():
    worst = 0.0
    for i in range(100):
        X, y = helpers.regression_instance(seed=2000 + i, n=30, m=8)
        lam = 0.05 + 0.002 * i
        lasso = lasso_fit(X, y, PenaltyConfig(lambda1=lam))
        enet = elastic_net_fit_cd(X, y, PenaltyConfig(lambda1=lam,
                                                      lambda2=0.0))
        worst = max(worst, float(np.max(np.abs(
            lasso.coefficients - enet.coefficients))))
    _verdict(2, worst <= 1e-10,
             f"100 instances, max coefficient gap {worst:.2e} (limit 1e-10)")


def test_criterion_03_duplicated_columns_group_or_concentrate():
    worst_gap = 0.0
    weakest_pair = math.inf
    lasso_counts = set()
    for i in range(50):
        X, y, pair = helpers.duplicated_instance(seed=3000 + i)
        # the 1e-8 pair tolerance needs convergence beyond the 1e-7 default
        enet = elastic_net_fit_cd(X, y, PenaltyConfig(
            lambda1=0.05, lambda2=0.05, stop_thr=1e-9))
        b = enet.coefficients
        worst_gap = max(worst_gap, abs(b[pair[0]] - b[pair[1]]))
        weakest_pair = min(weakest_pair, min(abs(b[pair[0]]),
                                             abs(b[pair[1]])))
        lasso = lasso_fit(X, y, PenaltyConfig(lambda1=0.05))
        sup = set(select_support(lasso.coefficients,
                                 min_magnitude=1e-8).tolist())
        lasso_counts.add(len(sup & set(pair)))
    ok = worst_gap <= 1e-8 and weakest_pair > 1e-3 and lasso_counts == {1}
    _verdict(3, ok,
             f"50 instances: elastic net max within-pair gap {worst_gap:.2e} "
             f"(limit 1e-8, both twins active), lasso pair-member counts "
             f"{sorted(lasso_counts)} (need exactly one)")


def test_criterion_04_kkt_residual_tracks_stop_threshold():
    stop_thr = 1e-7
    worst = 0.0
    checked = 0
    for i in range(30):
        X, y = helpers.regression_instance(seed=4000 + i, n=40, m=10)
        lam2 = 0.0 if i % 2 == 0 else 0.025
        cfg = PenaltyConfig(lambda1=0.05, lambda2=lam2, stop_thr=stop_thr)
        fit = elastic_net_fit_cd(X, y, cfg)
        if not fit.converged:
            continue
        checked += 1
        worst = max(worst, kkt_violation(X, y, cfg, fit.coefficients))
    ok = checked == 30 and worst < 100.0 * stop_thr
    _verdict(4, ok,
             f"{checked}/30 solves converged, max KKT violation {worst:.2e} "
             f"(limit 100*stop_thr = {100 * stop_thr:.0e})")


def test_criterion_05_svm_reduction_agrees_with_coordinate_descent():
    worst = 0.0
    for i in range(50):
        X, y = helpers.regression_instance(seed=5000 + i, n=30, m=8)
        cfg = PenaltyConfig(lambda1=0.04 + 0.001 * i, lambda2=0.02,
                            stop_thr=1e-9)
        cd = elastic_net_fit_cd(X, y, cfg)
        sven = elastic_net_fit_svm_reduction(X, y, cfg)
        gap = abs(sven.objective_value - cd.objective_value)
        rel = gap / max(1e-12, abs(cd.objective_value))
        worst = max(worst, rel)
    _verdict(5, worst <= 1e-4,
             f"50 instances, max relative objective gap {worst:.2e} "
             f"(limit 1e-4)")


def test_criterion_06_pca_against_symmetric_eigensolver():
    rng = PortableRng(600)
    X = rng.normal_matrix(40, 12) @ rng.normal_matrix(12, 12)
    model = pca_fit(X, retain=1.0)
    gram = model.components @ model.components.T
    ortho_err = float(np.max(np.abs(gram - np.eye(model.n_components))))
    recon_err = float(np.max(np.abs(
        pca_transform(model, X) @ model.components + model.mean - X)))
    centered = X - X.mean(axis=0)
    evals = np.linalg.eigh(centered.T @ centered / (len(X) - 1))[0][::-1]
    eig_err = float(np.max(np.abs(
        model.explained_variance - evals[:model.n_components])))
    ok = ortho_err <= 1e-8 and recon_err <= 1e-8 and eig_err <= 1e-8
    _verdict(6, ok,
             f"orthonormality {ortho_err:.2e}, reconstruction "
             f"{recon_err:.2e}, eigenvalue gap vs eigh {eig_err:.2e} "
             f"(limits 1e-8)")


def test_criterion_07_kernel_classifier_reference_problems():
    xor_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0.0, 1.0, 1.0, 0.0])
    model = elm_train(xor_X, xor_y, gamma=1.0)
    xor_acc = accuracy(predicted_labels(model, elm_predict(model, xor_X)),
                       xor_y)

    rng = PortableRng(700)
    centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    X = np.vstack([rng.normal_matrix(60, 2) + c for c in centers])
    y = np.repeat([0.0, 1.0, 2.0], 60)
    order = rng.permutation(len(X))
    train, test = order[:120], order[120:]
    blob = elm_train(X[train], y[train])
    blob_acc = accuracy(predicted_labels(blob, elm_predict(blob, X[test])),
                        y[test])

    perm = rng.permutation(len(train))
    shuffled = elm_train(X[train][perm], y[train][perm])
    perm_gap = float(np.max(np.abs(elm_predict(blob, X[test]) -
                                   elm_predict(shuffled, X[test]))))
    ok = xor_acc == 1.0 and blob_acc >= 0.95 and perm_gap <= 1e-10
    _verdict(7, ok,
             f"xor accuracy {xor_acc:.2f} (need 1.00), blob holdout accuracy "
             f"{blob_acc:.2f} (need >= 0.95), training-order score gap "
             f"{perm_gap:.2e} (limit 1e-10)")


def test_criterion_08_network_stage_shapes_are_exact():
    cfg = CnnConfig()
    trace = cfg.stage_trace()
    expected = [(32, 32, 32), (32, 16, 16), (64, 16, 16), (64, 8, 8),
                (64, 8, 8), (64, 4, 4)]
    rng = PortableRng(800)
    vol = Volume3D(rng.normal_matrix(64 * 64, 64).reshape(64, 64, 64))
    centers = default_patch_centers(vol.voxels.shape, 151)
    net = cnn_init(cfg, seed=8)
    features = extract_image_features(net, vol, centers)
    ok = (trace == expected and cfg.feature_length == 1024
          and len(centers) == 151 and features.shape == (154624,))
    _verdict(8, ok,
             f"stage trace {trace[0]}..{trace[-1]}, 1024 features/patch, "
             f"151 centers -> {features.shape[0]} per volume (need 154624)")


def test_criterion_09_network_gradients_match_finite_differences():
    cfg = CnnConfig(input_size=8, channels=(4, 5, 6))
    net = cnn_init(cfg, seed=9)
    rng = PortableRng(900)
    batch = [rng.normal_matrix(3 * 8, 8).reshape(3, 8, 8),
             rng.normal_matrix(3 * 8, 8).reshape(3, 8, 8)]
    labels = [0, 1]
    _, grads = cnn_loss_grad(net, batch, labels)
    step = 1e-5
    worst = 0.0
    for param, grad in zip(net.parameters(), grads.parameters()):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for k in range(0, flat_p.size, max(1, flat_p.size // 7)):
            orig = flat_p[k]
            flat_p[k] = orig + step
            up, _ = cnn_loss_grad(net, batch, labels)
            flat_p[k] = orig - step
            dn, _ = cnn_loss_grad(net, batch, labels)
            flat_p[k] = orig
            numeric = (up - dn) / (2 * step)
            denom = max(abs(numeric), abs(flat_g[k]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[k]) / denom)
    _verdict(9, worst <= 1e-4,
             f"max relative gradient error {worst:.2e} vs central "
             f"differences (limit 1e-4)")


def test_criterion_10_sigma_formula_against_two_pass_oracle():
    exact = stddev_population([0.0, 2.0])
    vals = PortableRng(1000).normals(200) * 2.5 - 0.75
    mean = math.fsum(vals) / len(vals)
    oracle = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / len(vals))
    gap = abs(stddev_population(vals) - oracle)
    ok = exact == 1.0 and gap <= 1e-12
    _verdict(10, ok,
             f"sigma(0,2) = {exact} (need exactly 1.0), two-pass oracle gap "
             f"{gap:.2e} (limit 1e-12)")


def test_criterion_11_fold_laws_and_no_test_row_leakage(monkeypatch):
    folds = kfold_split(100, 10, seed=11)
    joined = np.sort(np.concatenate(folds))
    laws = (len(folds) == 10 and all(len(f) == 10 for f in folds)
            and np.array_equal(joined, np.arange(100)))

    spec = SyntheticSpec(n_samples=80, n_informative_groups=2, group_size=3,
                         within_group_correlation=0.8, noise_std=0.3,
                         n_noise_features=6, seed=110)
    X, labels, _ = generate_synthetic(spec)
    cfg = PipelineConfig(selector="lasso", k_folds=4, seed=11)
    # every standardization, PCA basis and classifier fitted, in call order
    fits = helpers.capture_fold_fits(monkeypatch)
    clean = run_pipeline(cfg, X, labels)
    target = clean.folds[0]
    clean_fits = helpers.fold_fits(fits)[0]
    tampered = X.copy()
    tampered[target.test_indices] = 1e6 * PortableRng(112).normal_matrix(
        len(target.test_indices), X.shape[1])
    fits.clear()
    dirty = run_pipeline(cfg, tampered, labels).folds[0]
    dirty_fits = helpers.fold_fits(fits)[0]
    fitted = {name for name, _ in clean_fits}
    leakage_free = (np.array_equal(dirty.support, target.support)
                    and fitted == {"standardize_columns", "pca_fit",
                                   "elm_train"}
                    and (helpers.fit_bytes(dirty_fits)
                         == helpers.fit_bytes(clean_fits)))
    _verdict(11, laws and leakage_free,
             f"10x10 fold laws {'hold' if laws else 'fail'}; corrupting test "
             f"rows leaves fitted parameters bit-identical: {leakage_free}")


def _acceptance_dataset():
    """Correlated informative groups plus an adjacent duplicated pair."""
    spec = SyntheticSpec(n_samples=200, n_informative_groups=3, group_size=3,
                         within_group_correlation=0.7, noise_std=0.3,
                         n_noise_features=8, seed=2026)
    X, labels, support = generate_synthetic(spec)
    X = np.insert(X, 1, X[:, 0], axis=1)
    truth = np.array([0] + [int(s) + 1 for s in support])
    return X, labels, truth, (0, 1)


def test_criterion_12_comparison_run_with_golden_outputs(tmp_path):
    start = time.perf_counter()
    X, labels, truth, pair = _acceptance_dataset()
    cfg = PipelineConfig(k_folds=10, seed=12, use_pca=False,
                         lambda1=0.02, lambda2=0.01,
                         min_support_magnitude=1e-8, group_name="acceptance")
    report = compare_selectors(cfg, X, labels)
    elapsed = time.perf_counter() - start

    truth_set = set(truth.tolist())
    coverage = min(
        len(set(o.support.tolist()) & truth_set) / len(truth_set)
        for o in report.folds)
    lasso_pair = max(len(set(o.support.tolist()) & set(pair))
                     for o in report.comparison.baseline_folds)

    fresh = {}
    for fmt in ("text-table", "comma-separated", "plot-data"):
        path = emit_report(report, fmt, tmp_path)
        fresh[path.name] = helpers.mask_timing(path.read_text())
    fresh["report.json"] = helpers.mask_timing_json(report_to_json(report))

    golden_ok = True
    mismatched = []
    for name, content in fresh.items():
        golden = (GOLDEN_DIR / name).read_text()
        if golden != content:
            golden_ok = False
            mismatched.append(name)

    ok = (elapsed < 300.0 and coverage >= 0.9 and lasso_pair <= 1
          and golden_ok)
    _verdict(12, ok,
             f"10-fold comparison in {elapsed:.1f}s (limit 300s); worst-fold "
             f"elastic-net truth coverage {coverage:.2f} (need >= 0.90); "
             f"lasso keeps <= {lasso_pair} of the duplicated pair (limit 1); "
             f"golden files {'match' if golden_ok else 'differ: ' + str(mismatched)}")
