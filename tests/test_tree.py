import numpy as np
import pytest

from fer_forge.tree import (
    TreeConfig,
    TreeNode,
    fit_tree,
    gini,
    load_tree,
    predict_tree,
    save_tree,
    tree_from_lines,
    tree_to_lines,
)


def walk_serialized(lines, features):
    """Independent rule-table walker over the serialized text form."""
    pos = 0

    def descend():
        nonlocal pos
        parts = lines[pos].split()
        pos += 1
        if parts[0] == "L":
            return int(parts[1])
        feature, threshold = int(parts[1]), float(parts[2])
        left_class = descend()
        right_class = descend()
        if features[feature] <= threshold:
            return left_class
        return right_class

    # the recursive skip above works because descend always consumes one
    # whole subtree before returning
    return descend()


def random_set(n, n_features=16, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(n, n_features)).astype(np.float64)
    y = rng.integers(0, 7, size=n).astype(np.int64)
    return x, y


class TestGini:
    def test_pure_class(self):
        assert gini(np.array([0, 12, 0, 0, 0, 0, 0])) == 0.0

    def test_fifty_fifty(self):
        assert gini(np.array([5, 5, 0, 0, 0, 0, 0])) == pytest.approx(0.5)

    def test_uniform_seven(self):
        assert gini(np.ones(7, dtype=int)) == pytest.approx(6.0 / 7.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gini(np.zeros(7, dtype=int))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([1, -1, 0, 0, 0, 0, 0]))


class TestFit:
    def test_single_sample_single_leaf(self):
        x = np.array([[10.0, 20.0]])
        root = fit_tree(x, np.array([4]), TreeConfig(min_samples_split=2))
        assert root.is_leaf
        assert root.predicted_class == 4

    def test_separable_pair_depth_one(self):
        x = np.array([[10.0, 100.0], [10.0, 200.0]])
        y = np.array([1, 5])
        root = fit_tree(x, y, TreeConfig(min_samples_split=2))
        assert not root.is_leaf
        assert root.feature_index == 1
        assert root.left.is_leaf and root.right.is_leaf
        assert predict_tree(root, x[0]) == 1
        assert predict_tree(root, x[1]) == 5

    def test_high_min_split_gives_majority_leaf(self):
        x, y = random_set(20, seed=1)
        y[:15] = 3
        root = fit_tree(x, y, TreeConfig(min_samples_split=50))
        assert root.is_leaf
        assert root.predicted_class == 3

    def test_majority_tie_breaks_low_index(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([6, 6, 2, 2])
        root = fit_tree(x, y, TreeConfig(min_samples_split=50))
        assert root.predicted_class == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 4)), np.zeros(0, dtype=int), TreeConfig())

    def test_unrestricted_tree_memorizes(self):
        x, y = random_set(40, seed=2)
        root = fit_tree(x, y, TreeConfig(min_samples_split=2))
        preds = [predict_tree(root, x[i]) for i in range(len(y))]
        assert np.array_equal(preds, y)

    def test_max_depth_caps_growth(self):
        x, y = random_set(60, seed=3)
        root = fit_tree(x, y, TreeConfig(min_samples_split=2, max_depth=2))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(root) <= 2

    def test_each_split_strictly_reduces_weighted_gini(self):
        x, y = random_set(50, seed=4)
        root = fit_tree(x, y, TreeConfig(min_samples_split=2))

        def check(node, idx):
            if node.is_leaf:
                return
            counts = np.bincount(y[idx], minlength=7)
            parent = gini(counts)
            mask = x[idx, node.feature_index] <= node.threshold
            li, ri = idx[mask], idx[~mask]
            weighted = (
                li.size * gini(np.bincount(y[li], minlength=7))
                + ri.size * gini(np.bincount(y[ri], minlength=7))
            ) / idx.size
            assert weighted < parent
            check(node.left, li)
            check(node.right, ri)

        check(root, np.arange(len(y)))

    def test_deterministic_refit(self):
        x, y = random_set(30, seed=5)
        a = tree_to_lines(fit_tree(x, y, TreeConfig(min_samples_split=4)))
        b = tree_to_lines(fit_tree(x, y, TreeConfig(min_samples_split=4)))
        assert a == b

    def test_feature_subsample_deterministic(self):
        x, y = random_set(30, n_features=64, seed=6)
        cfg = TreeConfig(min_samples_split=4, feature_subsample=8, seed=9)
        a = tree_to_lines(fit_tree(x, y, cfg))
        b = tree_to_lines(fit_tree(x, y, cfg))
        assert a == b

    def test_normalized_images_rescaled_to_pixel_units(self):
        rng = np.random.default_rng(7)
        images = rng.random((10, 1, 6, 6)).astype(np.float32)
        labels = rng.integers(0, 7, 10)
        root = fit_tree(images, labels, TreeConfig(min_samples_split=2))

        def thresholds(node):
            if node.is_leaf:
                return []
            return [node.threshold] + thresholds(node.left) + thresholds(node.right)

        ts = thresholds(root)
        assert ts and all(0.0 <= t <= 255.0 for t in ts)
        assert max(ts) > 1.0  # pixel units, not normalized units


class TestPredict:
    def test_single_leaf_always_majority(self):
        root = TreeNode(class_counts=np.array([1, 5, 0, 0, 0, 0, 0]), predicted_class=1)
        for v in (0.0, 128.0, 255.0):
            assert predict_tree(root, np.full(4, v)) == 1

    def test_agrees_with_serialized_walker(self):
        x, y = random_set(20, seed=8)
        root = fit_tree(x, y, TreeConfig(min_samples_split=2))
        lines = tree_to_lines(root)
        for i in range(20):
            assert predict_tree(root, x[i]) == walk_serialized(lines, x[i])


class TestSerialization:
    def test_line_round_trip(self):
        x, y = random_set(25, seed=9)
        root = fit_tree(x, y, TreeConfig(min_samples_split=3))
        lines = tree_to_lines(root)
        rebuilt = tree_from_lines(lines)
        assert tree_to_lines(rebuilt) == lines
        for i in range(25):
            assert predict_tree(root, x[i]) == predict_tree(rebuilt, x[i])

    def test_file_round_trip(self, tmp_path):
        x, y = random_set(15, seed=10)
        root = fit_tree(x, y, TreeConfig(min_samples_split=3))
        path = str(tmp_path / "tree.txt")
        save_tree(root, path)
        loaded = load_tree(path)
        assert tree_to_lines(loaded) == tree_to_lines(root)

    def test_truncated_file_rejected(self):
        with pytest.raises(ValueError):
            tree_from_lines(["I 3 1.5", "L 0 1 0 0 0 0 0 0"])

    def test_trailing_lines_rejected(self):
        with pytest.raises(ValueError):
            tree_from_lines(["L 0 1 0 0 0 0 0 0", "L 1 0 1 0 0 0 0 0"])

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            tree_from_lines(["X 0 0"])

    def test_wrong_count_width_rejected(self):
        with pytest.raises(ValueError):
            tree_from_lines(["L 0 1 2 3"])


class TestConfig:
    def test_min_split_lower_bound(self):
        with pytest.raises(ValueError):
            TreeConfig(min_samples_split=1)


class TestPixelUnits:
    def test_raw_uint8_pixels_are_not_rescaled(self):
        # pixel 0 alone decides the class; every value is 0 or 1
        x = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
        root = fit_tree(x, np.array([0, 0, 1, 1]), TreeConfig(min_samples_split=2))
        assert tree_to_lines(root)[0] == "I 0 0.5"
        assert predict_tree(root, np.array([1, 200, 0], dtype=np.uint8)) == 1
        assert predict_tree(root, np.array([0, 200, 0], dtype=np.uint8)) == 0

    def test_dtype_not_range_sets_units(self):
        # the same 0/1 values: float32 is normalized (0.5 -> pixel 127.5), float64 is pixels
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([2, 2, 5, 5])
        cfg = TreeConfig(min_samples_split=2)
        assert tree_to_lines(fit_tree(x.astype(np.float32), y, cfg))[0] == "I 0 127.5"
        assert tree_to_lines(fit_tree(x, y, cfg))[0] == "I 0 0.5"
