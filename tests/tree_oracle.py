"""Reference tree fitter: the per-feature split scan.

This is the package's original ``fit_tree`` and ``_best_split``, kept as
the oracle that the presorted search in ``fer_forge.tree`` must reproduce
exactly: the same ``tree_to_lines`` text for the same input. Only the
``max_depth`` and ``feature_subsample`` branches are gone, with the
options they served. Every feature is argsorted again at every node, so
it is slow.
"""

import numpy as np

from fer_forge.data import NUM_CLASSES
from fer_forge.tree import TreeConfig, TreeNode, _make_leaf, gini


def _best_split(x: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Best (gain, feature, threshold) over candidate midpoints, or None."""
    n = x.shape[0]
    parent_counts = np.bincount(y, minlength=NUM_CLASSES)
    parent_gini = gini(parent_counts)
    best = None
    onehot = np.zeros((n, NUM_CLASSES), dtype=np.int64)
    onehot[np.arange(n), y] = 1
    for f in features:
        values = x[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        # cumulative class counts for the first i samples, i = 1..n-1
        cum = np.cumsum(onehot[order], axis=0)[:-1]
        cut = np.nonzero(sv[:-1] != sv[1:])[0]
        if cut.size == 0:
            continue
        left = cum[cut].astype(np.float64)
        right = parent_counts[None, :] - left
        nl = left.sum(axis=1)
        nr = n - nl
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(weighted))  # first minimum = lowest threshold
        gain = parent_gini - weighted[k]
        if gain > 0 and (best is None or gain > best[0]):
            threshold = float((sv[cut[k]] + sv[cut[k] + 1]) / 2.0)
            best = (gain, int(f), threshold)
    return best


def _pixel_units(values) -> np.ndarray:
    """Features as float64 pixel values (0..255), decided by dtype alone."""
    x = np.asarray(values)
    pixels = np.asarray(x, dtype=np.float64)
    return pixels * 255.0 if x.dtype == np.float32 else pixels


def fit_tree(images: np.ndarray, labels: np.ndarray, cfg: TreeConfig | None = None) -> TreeNode:
    """Grow a tree on flattened pixel features, thresholds in pixel units."""
    cfg = cfg or TreeConfig()
    x = _pixel_units(images)
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} samples but {y.shape[0]} labels")

    n_features = x.shape[1]
    root = TreeNode()
    stack = [(root, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=NUM_CLASSES)
        if idx.size < cfg.min_samples_split or counts.max() == idx.size:
            _make_leaf(node, counts)
            continue
        features = np.arange(n_features)
        best = _best_split(x[idx], y[idx], features)
        if best is None:
            _make_leaf(node, counts)
            continue
        _, node.feature_index, node.threshold = best
        mask = x[idx, node.feature_index] <= node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root
