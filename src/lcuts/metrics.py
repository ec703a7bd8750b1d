"""Grouping and counting accuracy between predicted and ground-truth clusters.

Predicted and truth clusterings are matched one-to-one by maximizing total
node overlap; node-level agreement then gives the grouping accuracy and
cluster-level agreement (a match counts only when the overlap covers at least
``overlap_frac`` of the larger group) gives the counting accuracy. Both are
Dice scores.

The overlap is built as sparse (pred, truth, count) entries. When no group on
either side appears in more than one entry, which for two partitions of one id
set means they hold the same groups, those entries are the matching: every
maximum-overlap assignment contains each of them, since neither of its groups
overlaps anything else. Only otherwise is the dense P x T overlap matrix built
and handed to ``scipy.optimize.linear_sum_assignment``, imported there, so
scoring an exact clustering, like every other command, never loads
``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError


@dataclass(frozen=True)
class EvalReport:
    gacc: float
    cacc: float
    node_tp: int
    node_fp: int
    node_fn: int
    cluster_tp: int
    cluster_fp: int
    cluster_fn: int
    matches: list[tuple[int, int, int]]  # (pred index, truth index, overlap)
    overlap_frac: float

    def to_dict(self) -> dict:
        return {
            "gacc": self.gacc,
            "cacc": self.cacc,
            "node": {"tp": self.node_tp, "fp": self.node_fp, "fn": self.node_fn},
            "cluster": {"tp": self.cluster_tp, "fp": self.cluster_fp, "fn": self.cluster_fn},
            "matches": [list(m) for m in self.matches],
            "overlapFrac": self.overlap_frac,
        }


def dice(tp: int, fp: int, fn: int) -> float:
    """2TP / (2TP + FP + FN); undefined when all three are zero."""
    if tp < 0 or fp < 0 or fn < 0:
        raise InputError("dice counts must be nonnegative")
    denom = 2 * tp + fp + fn
    if denom == 0:
        raise DegenerateInputError("dice undefined for tp = fp = fn = 0")
    return 2.0 * tp / denom


def check_overlap_frac(overlap_frac: float) -> None:
    """Reject a counting-accuracy overlap fraction outside (0, 1], NaN included."""
    if not 0.0 < overlap_frac <= 1.0:
        raise InputError(f"overlapFrac must be in (0, 1], got {overlap_frac}")


def _check_clustering(groups, label: str) -> list[set[int]]:
    sets = [set(g) for g in groups]
    seen: set[int] = set()
    for g in sets:
        if not g:
            raise InputError(f"{label} contains an empty group")
        if seen & g:
            raise InputError(f"{label} groups overlap")
        seen |= g
    return sets


def match_clusters(pred, truth) -> list[tuple[int, int, int]]:
    """One-to-one matching maximizing total overlap.

    Returns (pred_index, truth_index, overlap) triples sorted by pred index;
    pairs with zero overlap are not reported. Both clusterings must cover the
    same id universe.
    """
    return _match(_check_clustering(pred, "pred"), _check_clustering(truth, "truth"))


def _match(pred: list[set[int]], truth: list[set[int]]) -> list[tuple[int, int, int]]:
    if set().union(*pred) != set().union(*truth):
        raise InputError("pred and truth must cover the same node ids")
    if not pred or not truth:
        return []
    # One (pred group, truth group) key per node; the distinct keys, sorted by
    # pred index, are the nonzero overlap entries and their counts.
    pred_of = {v: i for i, g in enumerate(pred) for v in g}
    truth_index = np.repeat(np.arange(len(truth)), [len(g) for g in truth])
    pred_index = np.array([pred_of[v] for g in truth for v in g], dtype=np.int64)
    keys, counts = np.unique(pred_index * len(truth) + truth_index, return_counts=True)
    rows, cols = np.divmod(keys, len(truth))
    if np.all(np.diff(rows) > 0) and np.bincount(cols).max() <= 1:
        # No group on either side is in two entries: these are the matching.
        return list(zip(rows.tolist(), cols.tolist(), counts.tolist()))
    # Loading scipy.optimize costs about 0.12 s and 12 MiB; only here is it needed.
    from scipy.optimize import linear_sum_assignment
    overlap = np.zeros((len(pred), len(truth)), dtype=np.int64)
    overlap[rows, cols] = counts
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    matches = [
        (int(i), int(j), int(overlap[i, j]))
        for i, j in zip(rows, cols)
        if overlap[i, j] > 0
    ]
    matches.sort()
    return matches


def grouping_accuracy(pred, truth) -> tuple[float, int, int, int]:
    """Node-level Dice: (gacc, tp, fp, fn)."""
    report = evaluate(pred, truth)
    return report.gacc, report.node_tp, report.node_fp, report.node_fn


def counting_accuracy(pred, truth, overlap_frac: float = 0.5) -> tuple[float, int, int, int]:
    """Cluster-level Dice: (cacc, tp, fp, fn).

    A matched pair counts as TP when its overlap reaches ``overlap_frac`` of
    the larger of the two groups; everything else on either side is an error.
    """
    report = evaluate(pred, truth, overlap_frac)
    return report.cacc, report.cluster_tp, report.cluster_fp, report.cluster_fn


def evaluate(pred, truth, overlap_frac: float = 0.5) -> EvalReport:
    """Full report: matching, grouping accuracy, counting accuracy.

    Both clusterings are validated and matched once; the two accuracies are
    read off the same matching.
    """
    check_overlap_frac(overlap_frac)
    pred_sets = _check_clustering(pred, "pred")
    truth_sets = _check_clustering(truth, "truth")
    matches = _match(pred_sets, truth_sets)
    node_tp = sum(ov for _, _, ov in matches)
    node_fp = sum(len(g) for g in pred_sets) - node_tp
    node_fn = sum(len(g) for g in truth_sets) - node_tp
    cluster_tp = sum(1 for i, j, ov in matches
                     if ov >= overlap_frac * max(len(pred_sets[i]), len(truth_sets[j])))
    cluster_fp = len(pred_sets) - cluster_tp
    cluster_fn = len(truth_sets) - cluster_tp
    return EvalReport(
        gacc=dice(node_tp, node_fp, node_fn), cacc=dice(cluster_tp, cluster_fp, cluster_fn),
        node_tp=node_tp, node_fp=node_fp, node_fn=node_fn,
        cluster_tp=cluster_tp, cluster_fp=cluster_fp, cluster_fn=cluster_fn,
        matches=matches, overlap_frac=overlap_frac,
    )
