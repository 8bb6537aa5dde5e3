"""CART-style decision tree over raw pixel features.

Splits greedily minimize weighted Gini impurity. Candidate thresholds are
the midpoints of consecutive distinct sorted feature values, scanned in
(feature_index, threshold) order with first-best-wins tie breaking, so a
fit is fully deterministic for a given dataset.

The split search is vectorised over features. Each feature's values are
coded once per fit as dense 8-bit ranks (16-bit past 256 levels, 32-bit
past 65,536), and a node sorts its rows by code with numpy's stable sort,
ties in row order: a radix sort, O(rows) per feature, for 8- and 16-bit
codes. Exact integer prefix sums then score every cut of a block of
features at once; only the cuts within a rounding margin of the best are
scored again with the float Gini formula of a per-feature scan, whose tie
rules then pick the split. So the tree is the one the per-feature scan
grows (kept in ``tests/tree_oracle.py``).

Trees serialize to a depth-first text format, one node per line:

    I <feature_index> <threshold>
    L <predicted_class> <count_0> ... <count_6>
"""

from dataclasses import dataclass

import numpy as np

from .data import NUM_CLASSES

# elements of one [features, rows] block of the split search; sizes the work buffers
_BLOCK = 1 << 16
# cuts whose score is within n * _MARGIN of the best get the float formula
_MARGIN = 1e-9
_ONEHOT = np.eye(NUM_CLASSES, dtype=np.int64)


@dataclass
class TreeConfig:
    min_samples_split: int = 40

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


def _pixel_units(values) -> np.ndarray:
    """Features as float64 pixel values (0..255), decided by dtype alone.

    float32 is the normalized [0,1] image dtype of ``data.LabeledDataset``
    and is scaled by 255; every other dtype (raw uint8 pixels, pixel-valued
    feature matrices) already holds pixel values.
    """
    x = np.asarray(values)
    pixels = np.asarray(x, dtype=np.float64)
    return pixels * 255.0 if x.dtype == np.float32 else pixels


def _blocks(n_features: int, n_rows: int):
    """Feature ranges [a, b) of at most max(_BLOCK, n_rows) elements each."""
    step = max(1, _BLOCK // n_rows)
    for a in range(0, n_features, step):
        yield a, min(a + step, n_features)


def _lowest_gini(values: np.ndarray, labels: np.ndarray, parent_counts: np.ndarray):
    """(weighted Gini, sorted position left of the cut) of the first best cut of
    one feature, with the float operations of the per-feature scan.

    ``values`` are the node's sorted pixel values, ``labels`` their classes.
    """
    n = values.shape[0]
    cum = np.cumsum(_ONEHOT[labels], axis=0)[:-1]
    cut = np.nonzero(values[:-1] != values[1:])[0]
    left = cum[cut].astype(np.float64)
    right = parent_counts[None, :] - left
    nl = left.sum(axis=1)
    nr = n - nl
    gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
    weighted = (nl * gini_l + nr * gini_r) / n
    k = int(np.argmin(weighted))  # first minimum = lowest threshold
    return weighted[k], int(cut[k])


class _SplitSearch:
    """The value codes of one fit and the work buffers of its nodes.

    ``codes[f, r]`` is the dense rank of row ``r``'s value among the
    distinct values of feature ``f``, so two rows hold the same value
    exactly when their codes are equal. A node is the ascending array of
    its rows; a stable sort of their codes lists them by value, ties in
    row order.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, n_features = x.shape
        self.x, self.y = x, y
        self.codes = np.empty((n_features, n), np.uint8)
        for a, b in _blocks(n_features, n):
            values = np.ascontiguousarray(_pixel_units(x[:, a:b]).T)
            order = np.argsort(values, axis=1, kind="stable")
            ordered = np.take_along_axis(values, order, axis=1)
            ranks = np.zeros(order.shape, np.int64)
            np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
            levels = int(ranks[:, -1].max()) + 1
            if levels > np.iinfo(self.codes.dtype).max + 1:
                self.codes = self.codes.astype(np.uint16 if levels <= 1 << 16 else np.uint32)
            np.put_along_axis(self.codes[a:b], order, ranks, axis=1)
        size = max(_BLOCK, n)
        self._ints = [np.empty(size, np.intp) for _ in range(3)]
        self._flags = np.empty(size, bool)
        self._scores = np.empty(size, np.float64)
        self._feature_best = np.empty(n_features, np.float64)

    @staticmethod
    def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
        return buffer[: shape[0] * shape[1]].reshape(shape)

    def _score_block(self, a: int, b: int, rows: np.ndarray, counts: np.ndarray):
        """Best cut score of each feature in [a, b), into ``_feature_best[a:b]``.

        With L and R the class counts left and right of a cut after nl of
        the node's n sorted rows, its weighted Gini is 1 - s/n for
        s = sum(L^2)/nl + sum(R^2)/nr. The score is s, from exact integers:
        sum(L^2) is the prefix sum of 2c-1, where c counts the row's class
        among the rows so far, itself included; and for the node's class
        counts P, sum(R^2) = sum(P^2) - 2*X + sum(L^2), with X the prefix
        sum of P[class]. So s*nl*nr = 2n*C + nl*(sum(P^2) - n - 2*X) for C
        the prefix sum of c. A cut between equal values scores -inf.
        """
        n = rows.size
        shape = (b - a, n)
        labels, work, prefix = (self._view(buffer, shape) for buffer in self._ints)
        codes = self.codes[a:b][:, rows]
        index = np.argsort(codes, axis=1, kind="stable")  # a radix sort of 8- and 16-bit codes
        codes = np.take_along_axis(codes, index, axis=1)
        np.take(self.y[rows], index, out=labels, mode="clip")
        # c of every row, into ``index``: a prefix sum of one-hot classes packed
        # into bit lanes of an int64, one lane per class present, each wide
        # enough to count n rows; classes that do not fit share a next word
        bits = n.bit_length()
        present = np.flatnonzero(counts)
        per_word = 63 // bits
        for start in range(0, present.size, per_word):
            lanes = present[start:start + per_word]
            shift = np.full(NUM_CLASSES, 63, np.int64)  # other classes read the zero sign bit
            shift[lanes] = bits * np.arange(lanes.size)
            one = np.zeros(NUM_CLASSES, np.int64)
            one[lanes] = np.left_shift(1, shift[lanes])
            np.take(one, labels, out=work, mode="clip")
            np.cumsum(work, axis=1, out=prefix)
            np.take(shift, labels, out=work, mode="clip")
            np.right_shift(prefix, work, out=prefix)
            if start == 0:
                np.bitwise_and(prefix, (1 << bits) - 1, out=index)
            else:
                np.bitwise_and(prefix, (1 << bits) - 1, out=prefix)
                np.add(index, prefix, out=index)
        np.cumsum(index, axis=1, out=prefix)
        np.take(counts, labels, out=work, mode="clip")
        np.cumsum(work, axis=1, out=index)
        nl = np.arange(1, n, dtype=np.int64)
        num, cross = prefix[:, :-1], index[:, :-1]
        np.multiply(cross, -2 * nl, out=cross)
        np.multiply(num, 2 * n, out=num)
        np.add(num, cross, out=num)
        np.add(num, nl * (int(counts @ counts) - n), out=num)
        scores = self._view(self._scores, (b - a, n - 1))
        np.divide(num, (nl * (n - nl)).astype(np.float64), out=scores)
        no_cut = self._view(self._flags, (b - a, n - 1))
        np.equal(codes[:, 1:], codes[:, :-1], out=no_cut)
        np.copyto(scores, -np.inf, where=no_cut)
        np.max(scores, axis=1, out=self._feature_best[a:b])

    def best_split(self, rows: np.ndarray, counts: np.ndarray):
        """Best (gain, feature, threshold) of the node holding ``rows``, or None."""
        n = rows.size
        for a, b in _blocks(self.codes.shape[0], n):
            self._score_block(a, b, rows, counts)
        top = self._feature_best.max()
        if top == -np.inf:
            return None
        parent_gini = gini(counts)
        best = None
        for f in np.flatnonzero(self._feature_best >= top - n * _MARGIN):
            ordered = rows[np.argsort(self.codes[f, rows], kind="stable")]
            values = _pixel_units(self.x[ordered, f])
            weighted, k = _lowest_gini(values, self.y[ordered], counts)
            gain = parent_gini - weighted
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, int(f), float((values[k] + values[k + 1]) / 2.0))
        return best


def fit_tree(images: np.ndarray, labels: np.ndarray, cfg: TreeConfig | None = None) -> TreeNode:
    """Grow a tree on flattened pixel features, thresholds in pixel units.

    ``images`` may be [N,1,48,48] normalized tensors or an [N,F] feature
    matrix; see ``_pixel_units`` for how the dtype sets the units.
    """
    cfg = cfg or TreeConfig()
    x = np.asarray(images)
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} samples but {y.shape[0]} labels")
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"cannot fit a tree on features of shape {x.shape[1:]}")
    if y.min() < 0 or y.max() >= NUM_CLASSES:
        raise ValueError(f"labels must lie in 0..{NUM_CLASSES - 1}")

    search = _SplitSearch(x, y)
    root = TreeNode()
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        counts = np.bincount(y[rows], minlength=NUM_CLASSES)
        if rows.size < cfg.min_samples_split or counts.max() == rows.size:
            _make_leaf(node, counts)
            continue
        best = search.best_split(rows, counts)
        if best is None:
            _make_leaf(node, counts)
            continue
        _, node.feature_index, node.threshold = best
        goes_left = _pixel_units(x[rows, node.feature_index]) <= node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.right, rows[~goes_left]))
        stack.append((node.left, rows[goes_left]))
    return root


def predict_tree(root: TreeNode, image: np.ndarray) -> int:
    """Walk feature <= threshold questions down to a leaf's class.

    Only the visited pixels are read, in the units of ``_pixel_units``.
    """
    x = np.asarray(image).reshape(-1)
    scale = 255.0 if x.dtype == np.float32 else 1.0
    node = root
    while not node.is_leaf:
        node = node.left if float(x[node.feature_index]) * scale <= node.threshold else node.right
    return node.predicted_class


def tree_to_lines(root: TreeNode) -> list[str]:
    lines, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            counts = " ".join(str(int(c)) for c in node.class_counts)
            lines.append(f"L {node.predicted_class} {counts}")
        else:
            lines.append(f"I {node.feature_index} {node.threshold!r}")
            stack += [node.right, node.left]
    return lines


def _read_node(node: TreeNode, parts: list[str]) -> bool:
    """Fill ``node`` from one line's fields; True for an internal node."""
    tag = parts[0] if parts else ""
    if tag == "I":
        if len(parts) != 3:
            raise ValueError(f"internal node line has {len(parts)} fields, expected 3")
        node.feature_index, node.threshold = int(parts[1]), float(parts[2])
        if node.feature_index < 0:
            raise ValueError(f"negative feature index {node.feature_index}")
        return True
    if tag == "L":
        if len(parts) != 2 + NUM_CLASSES:
            raise ValueError(
                f"leaf line carries {max(len(parts) - 2, 0)} counts, expected {NUM_CLASSES}")
        node.predicted_class = int(parts[1])
        node.class_counts = np.array([int(c) for c in parts[2:]], dtype=np.int64)
        return False
    raise ValueError(f"unknown node tag {tag!r}")


def tree_from_lines(lines: list[str]) -> TreeNode:
    """Rebuild a tree from its depth-first lines, skipping blank ones.

    A malformed tree raises ValueError naming its 1-based line number.
    """
    root = TreeNode()
    pending = [root]  # nodes still to read, the next one last
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not pending:
            raise ValueError(f"line {number}: trailing line after the tree")
        node = pending.pop()
        try:
            internal = _read_node(node, line.split())
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if internal:
            node.left, node.right = TreeNode(), TreeNode()
            pending += [node.right, node.left]
    if pending:
        raise ValueError(f"tree file ended mid-node after line {len(lines)}")
    return root


def save_tree(root: TreeNode, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(tree_to_lines(root)) + "\n")


def load_tree(path: str) -> TreeNode:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_lines(fh.read().splitlines())
