import itertools

import numpy as np
import pytest

from lcuts.engine import lcuts
from lcuts.errors import DegenerateInputError, InputError
from lcuts.metrics import (counting_accuracy, dice, evaluate, grouping_accuracy,
                           match_clusters)
from oracles import match_dense
from test_acceptance import fuzz_cloud


def test_dice_values():
    assert dice(1, 0, 0) == 1.0
    assert dice(0, 3, 2) == 0.0
    assert dice(3, 1, 1) == 0.75
    with pytest.raises(DegenerateInputError):
        dice(0, 0, 0)
    with pytest.raises(InputError):
        dice(-1, 0, 0)


def test_match_clusters_identity():
    groups = [{0, 1, 2}, {3, 4}, {5}]
    assert match_clusters(groups, groups) == [(0, 0, 3), (1, 1, 2), (2, 2, 1)]


def test_match_clusters_split():
    truth = [set(range(10))]
    pred = [set(range(6)), set(range(6, 10))]
    matches = match_clusters(pred, truth)
    assert matches == [(0, 0, 6)]  # only the larger half can match


def test_match_clusters_requires_same_universe():
    with pytest.raises(InputError):
        match_clusters([{0, 1}], [{0, 1, 2}])
    with pytest.raises(InputError):
        match_clusters([{0, 1}, {1, 2}], [{0, 1, 2}])  # overlap
    with pytest.raises(InputError):
        match_clusters([{0}, set()], [{0}])  # empty group


def test_match_clusters_vs_permutation_oracle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        # random 5x5 overlap structure built from a random labeling
        pred_label = rng.integers(0, 5, 60)
        truth_label = rng.integers(0, 5, 60)
        pred = [set(np.nonzero(pred_label == k)[0].tolist()) for k in range(5)]
        truth = [set(np.nonzero(truth_label == k)[0].tolist()) for k in range(5)]
        pred = [g for g in pred if g]
        truth = [g for g in truth if g]
        overlap = np.array([[len(p & t) for t in truth] for p in pred])
        matches = match_clusters(pred, truth)
        total = sum(ov for _, _, ov in matches)
        n_p, n_t = overlap.shape
        best = 0
        # exhaustive assignment over permutations of the smaller side
        if n_p <= n_t:
            for perm in itertools.permutations(range(n_t), n_p):
                best = max(best, sum(overlap[i, perm[i]] for i in range(n_p)))
        else:
            for perm in itertools.permutations(range(n_p), n_t):
                best = max(best, sum(overlap[perm[j], j] for j in range(n_t)))
        assert total == best
        # one-to-one and only positive overlaps reported
        assert len({i for i, _, _ in matches}) == len(matches)
        assert len({j for _, j, _ in matches}) == len(matches)
        assert all(ov > 0 for _, _, ov in matches)
        assert all(ov == overlap[i, j] for i, j, ov in matches)


def test_grouping_accuracy_perfect():
    groups = [{0, 1, 2}, {3, 4}]
    gacc, tp, fp, fn = grouping_accuracy(groups, groups)
    assert gacc == 1.0 and tp == 5 and fp == 0 and fn == 0


def test_grouping_accuracy_split():
    truth = [set(range(10))]
    pred = [set(range(6)), set(range(6, 10))]
    gacc, tp, fp, fn = grouping_accuracy(pred, truth)
    assert (tp, fp, fn) == (6, 4, 4)
    assert gacc == pytest.approx(0.6, abs=1e-15)


def test_counting_accuracy_perfect():
    groups = [set(range(5 * k, 5 * k + 5)) for k in range(20)]
    cacc, tp, fp, fn = counting_accuracy(groups, groups)
    assert cacc == 1.0 and tp == 20 and fp == 0 and fn == 0


def test_counting_accuracy_one_split():
    truth = [set(range(10 * k, 10 * k + 10)) for k in range(20)]
    pred = [set(range(10 * k, 10 * k + 10)) for k in range(19)]
    pred += [set(range(190, 195)), set(range(195, 200))]
    cacc, tp, fp, fn = counting_accuracy(pred, truth, 0.5)
    # the 5-node half still covers half of the 10-node truth group
    assert (tp, fp, fn) == (20, 1, 0)
    assert cacc == pytest.approx(40.0 / 41.0, abs=1e-15)
    # demanding more overlap turns it into a miss
    cacc_strict, tp_s, fp_s, fn_s = counting_accuracy(pred, truth, 0.8)
    assert (tp_s, fp_s, fn_s) == (19, 2, 1)
    assert cacc_strict == pytest.approx(38.0 / 41.0, abs=1e-15)


def test_counting_accuracy_overlap_frac_range():
    for frac in (0.0, 1.5, float("nan")):
        with pytest.raises(InputError, match="overlapFrac"):
            counting_accuracy([{0}], [{0}], frac)
    # checked before the clusterings, so a bad fraction is named first
    with pytest.raises(InputError, match="overlapFrac"):
        evaluate([{0}], [{0, 1}], 2.0)


def test_relabel_invariance():
    rng = np.random.default_rng(20)
    for _ in range(20):
        labels = rng.integers(0, 6, 40)
        truth = [set(np.nonzero(labels == k)[0].tolist()) for k in range(6)]
        truth = [g for g in truth if g]
        pred_labels = labels.copy()
        flip = rng.random(40) < 0.15
        pred_labels[flip] = rng.integers(0, 6, int(flip.sum()))
        pred = [set(np.nonzero(pred_labels == k)[0].tolist()) for k in range(6)]
        pred = [g for g in pred if g]
        base = evaluate(pred, truth)
        shuffled = [pred[i] for i in rng.permutation(len(pred))]
        again = evaluate(shuffled, truth)
        assert again.gacc == base.gacc and again.cacc == base.cacc


def test_split_never_raises_gacc():
    rng = np.random.default_rng(30)
    for _ in range(20):
        labels = rng.integers(0, 4, 30)
        truth = [set(np.nonzero(labels == k)[0].tolist()) for k in range(4)]
        truth = [g for g in truth if g]
        base = grouping_accuracy(truth, truth)[0]
        victim = max(range(len(truth)), key=lambda k: len(truth[k]))
        members = sorted(truth[victim])
        cut = rng.integers(1, len(members)) if len(members) > 1 else 1
        split = [g for k, g in enumerate(truth) if k != victim]
        split += [set(members[:cut]), set(members[cut:])] if cut < len(members) else [set(members)]
        gacc = grouping_accuracy(split, truth)[0]
        assert gacc <= base + 1e-15


def test_evaluate_report_roundtrip():
    truth = [{0, 1, 2, 3}, {4, 5}]
    pred = [{0, 1, 2}, {3}, {4, 5}]
    report = evaluate(pred, truth)
    doc = report.to_dict()
    assert doc["node"]["tp"] == 5
    assert doc["matches"] == [[0, 0, 3], [2, 1, 2]]
    assert doc["overlapFrac"] == 0.5
    assert 0.0 < report.gacc < 1.0


def labels_to_groups(labels) -> list[set[int]]:
    return [set(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels)]


def assert_matches_oracle(pred, truth):
    want = match_dense(pred, truth)
    assert match_clusters(pred, truth) == want
    assert evaluate(pred, truth).matches == want


def test_match_one_to_one_partitions_equal_dense_oracle():
    # Two partitions of one id set overlap one to one only when they hold the
    # same groups, so the pred side is the truth reordered.
    rng = np.random.default_rng(40)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        truth = labels_to_groups(rng.integers(0, int(rng.integers(1, 12)), n))
        pred = [truth[i] for i in rng.permutation(len(truth))]
        assert_matches_oracle(pred, truth)
        assert match_clusters(pred, truth) == sorted(
            (i, truth.index(g), len(g)) for i, g in enumerate(pred))


def test_match_ambiguous_partitions_with_ties_equal_dense_oracle():
    rng = np.random.default_rng(41)
    for _ in range(600):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 6))
        truth_labels = rng.integers(0, k, n)
        if rng.random() < 0.5:
            # few nodes over few labels: many overlaps tie
            pred_labels = rng.integers(0, k, n)
        else:
            # split each group in two by node parity, so the halves often tie
            pred_labels = 2 * truth_labels + (np.arange(n) % 2)
        assert_matches_oracle(labels_to_groups(pred_labels), labels_to_groups(truth_labels))


def test_match_on_fuzz_corpus_results_equals_dense_oracle():
    # Replays criterion 09's corpus draw for draw. Each result, outliers as
    # singletons, is matched against a reordered copy of itself (one to one)
    # and against a 20-unit grid labelling of the nodes (ambiguous).
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if len(cloud) == 0:
            continue
        result = lcuts(cloud)
        pred = [set(g) for g in result.groups] + [{o} for o in result.outliers]
        assert_matches_oracle(pred, pred[::-1])
        cells = np.floor(cloud.locs() / 20.0).astype(np.int64)
        _, grid = np.unique(cells, axis=0, return_inverse=True)
        assert_matches_oracle(pred, labels_to_groups(grid.ravel()))
