"""CART-style decision tree over raw pixel features.

Splits greedily minimize weighted Gini impurity. Candidate thresholds are
the midpoints of consecutive distinct sorted feature values, scanned in
(feature_index, threshold) order with first-best-wins tie breaking, so a
fit is fully deterministic for a given dataset.

Trees serialize to a depth-first text format, one node per line:

    I <feature_index> <threshold>
    L <predicted_class> <count_0> ... <count_6>
"""

from dataclasses import dataclass

import numpy as np

from .data import NUM_CLASSES
from .seeding import derive_seed


@dataclass
class TreeConfig:
    min_samples_split: int = 40
    max_depth: int | None = None
    feature_subsample: int | None = None  # per-node cap; None scans all 2304 features
    seed: int = 0

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (counts/class)."""

    feature_index: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_counts: np.ndarray | None = None
    predicted_class: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature_index < 0


def gini(class_counts: np.ndarray) -> float:
    counts = np.asarray(class_counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValueError("class counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("gini of all-zero counts is undefined")
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _make_leaf(node: TreeNode, counts: np.ndarray):
    node.class_counts = counts.copy()
    node.predicted_class = int(np.argmax(counts))  # argmax breaks ties toward index 0


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
    """Features as float64 pixel values (0..255), decided by dtype alone.

    float32 is the normalized [0,1] image dtype of ``data.LabeledDataset``
    and is scaled by 255; every other dtype (raw uint8 pixels, pixel-valued
    feature matrices) already holds pixel values.
    """
    x = np.asarray(values)
    pixels = np.asarray(x, dtype=np.float64)
    return pixels * 255.0 if x.dtype == np.float32 else pixels


def fit_tree(images: np.ndarray, labels: np.ndarray, cfg: TreeConfig | None = None) -> TreeNode:
    """Grow a tree on flattened pixel features, thresholds in pixel units.

    ``images`` may be [N,1,48,48] normalized tensors or an [N,F] feature
    matrix; see ``_pixel_units`` for how the dtype sets the units.
    """
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
        at_limit = cfg.max_depth is not None and depth >= cfg.max_depth
        if idx.size < cfg.min_samples_split or counts.max() == idx.size or at_limit:
            _make_leaf(node, counts)
            continue
        if cfg.feature_subsample and cfg.feature_subsample < n_features:
            rng = np.random.default_rng(derive_seed(cfg.seed, "features", depth, int(idx[0])))
            features = np.sort(rng.choice(n_features, cfg.feature_subsample, replace=False))
        else:
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


def predict_tree(root: TreeNode, image: np.ndarray) -> int:
    """Walk feature <= threshold questions down to a leaf's class."""
    x = _pixel_units(image).reshape(-1)
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.predicted_class


def tree_to_lines(root: TreeNode) -> list[str]:
    lines = []

    def visit(node):
        if node.is_leaf:
            counts = " ".join(str(int(c)) for c in node.class_counts)
            lines.append(f"L {node.predicted_class} {counts}")
        else:
            lines.append(f"I {node.feature_index} {node.threshold!r}")
            visit(node.left)
            visit(node.right)

    visit(root)
    return lines


def tree_from_lines(lines: list[str]) -> TreeNode:
    it = iter(lines)

    def parse():
        parts = next(it).split()
        if parts[0] == "I":
            node = TreeNode(feature_index=int(parts[1]), threshold=float(parts[2]))
            node.left = parse()
            node.right = parse()
            return node
        if parts[0] == "L":
            counts = np.array([int(c) for c in parts[2:]], dtype=np.int64)
            if counts.size != NUM_CLASSES:
                raise ValueError(f"leaf line carries {counts.size} counts, expected {NUM_CLASSES}")
            return TreeNode(class_counts=counts, predicted_class=int(parts[1]))
        raise ValueError(f"unknown node tag {parts[0]!r}")

    try:
        root = parse()
    except StopIteration:
        raise ValueError("tree file ended mid-node") from None
    remainder = list(it)
    if remainder:
        raise ValueError(f"{len(remainder)} trailing lines after tree")
    return root


def save_tree(root: TreeNode, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(tree_to_lines(root)) + "\n")


def load_tree(path: str) -> TreeNode:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return tree_from_lines(lines)
