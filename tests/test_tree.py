import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from fer_forge.tree import (
    TreeConfig,
    TreeNode,
    _pixel_units,
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


@st.composite
def fit_inputs(draw):
    """(features, labels, min_samples_split): integer float64 [N,F], float32
    [N,1,h,w] images or uint8, with few levels (heavy ties), constant columns
    and single rows among them."""
    n = draw(st.integers(1, 60))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    levels = draw(st.sampled_from([1, 2, 3, 5, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.integers(0, levels, size=(n, h * w))
    if draw(st.booleans()):
        raw[:, rng.integers(0, h * w)] = rng.integers(0, levels)  # a constant column
    kind = draw(st.sampled_from(["float64", "float32", "uint8"]))
    if kind == "float64":
        x = raw.astype(np.float64)
    elif kind == "float32":
        x = (raw / 255.0).astype(np.float32).reshape(n, 1, h, w)
    else:
        x = raw.astype(np.uint8)
    labels = rng.integers(0, draw(st.integers(1, 7)), size=n)
    return x, labels, draw(st.integers(2, 40))


def fer_like_images(n, seed):
    """float32 [n,1,48,48] images: 0..109 noise, each class lifting its own six
    6x6 blocks by 30 levels, every class equally often."""
    layout = np.random.default_rng(0)
    templates = np.zeros((7, 48, 48), dtype=np.uint8)
    for template in templates:
        for y, x in layout.integers(0, 43, size=(6, 2)):
            template[y:y + 6, x:x + 6] = 30
    rng = np.random.default_rng(seed)
    labels = np.resize(np.arange(7), n)
    rng.shuffle(labels)
    pixels = rng.integers(0, 110, size=(n, 48, 48), dtype=np.uint8) + templates[labels]
    return (pixels.astype(np.float32) / 255.0).reshape(n, 1, 48, 48), labels


class TestMatchesPerFeatureScan:
    """The presorted search grows the tree of ``tests/tree_oracle.py``, byte for byte."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(fit_inputs())
    def test_random_small_inputs(self, case):
        x, y, min_split = case
        cfg = TreeConfig(min_samples_split=min_split)
        assert tree_to_lines(fit_tree(x, y, cfg)) == tree_to_lines(tree_oracle.fit_tree(x, y, cfg))

    @pytest.mark.parametrize("min_split", [10, 40])
    def test_seeded_face_like_images(self, min_split):
        images, labels = fer_like_images(120, seed=11)
        cfg = TreeConfig(min_samples_split=min_split)
        lines = tree_to_lines(fit_tree(images, labels, cfg))
        assert len(lines) > 3
        assert lines == tree_to_lines(tree_oracle.fit_tree(images, labels, cfg))

    def test_class_counts_over_two_packed_words(self):
        # 600 rows need 10-bit counters: six classes fit one int64, the seventh a second
        x, y = random_set(600, n_features=6, seed=12)
        cfg = TreeConfig(min_samples_split=30)
        assert tree_to_lines(fit_tree(x, y, cfg)) == tree_to_lines(tree_oracle.fit_tree(x, y, cfg))

    def test_more_than_256_distinct_values(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 5)) * 1000.0
        y = rng.integers(0, 7, 300)
        cfg = TreeConfig(min_samples_split=8)
        assert tree_to_lines(fit_tree(x, y, cfg)) == tree_to_lines(tree_oracle.fit_tree(x, y, cfg))

    def test_more_rows_than_int16_and_levels_than_uint16(self):
        # 70,000 distinct values a feature: 32-bit codes, which sort by comparison
        rng = np.random.default_rng(14)
        x = rng.normal(size=(70_000, 2))
        y = rng.integers(0, 7, 70_000)
        x[:, 0] += y
        cfg = TreeConfig(min_samples_split=4000)
        lines = tree_to_lines(fit_tree(x, y, cfg))
        assert len(lines) > 3
        assert lines == tree_to_lines(tree_oracle.fit_tree(x, y, cfg))


class TestPredict:
    def test_single_leaf_always_majority(self):
        root = TreeNode(class_counts=np.array([1, 5, 0, 0, 0, 0, 0]), predicted_class=1)
        for v in (0.0, 128.0, 255.0):
            assert predict_tree(root, np.full(4, v)) == 1

    def test_float32_pixels_scaled_as_the_fit_scales_them(self):
        images, labels = fer_like_images(70, seed=14)
        root = fit_tree(images, labels, TreeConfig(min_samples_split=10))
        lines = tree_to_lines(root)
        for image in images:
            assert predict_tree(root, image) == walk_serialized(lines, _pixel_units(image).reshape(-1))

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
        with pytest.raises(ValueError, match="ended mid-node after line 2"):
            tree_from_lines(["I 3 1.5", "L 0 1 0 0 0 0 0 0"])

    def test_trailing_lines_rejected(self):
        with pytest.raises(ValueError, match="line 2: trailing"):
            tree_from_lines(["L 0 1 0 0 0 0 0 0", "L 1 0 1 0 0 0 0 0"])

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError, match="line 1: unknown node tag 'X'"):
            tree_from_lines(["X 0 0"])

    def test_wrong_count_width_rejected(self):
        with pytest.raises(ValueError, match="line 1: leaf line carries 3 counts, expected 7"):
            tree_from_lines(["L 0 1 2 3"])


    def test_deep_chain_round_trips(self):
        depth = 5000
        lines = []
        for i in range(depth):
            lines.append(f"I {i % 7} {i + 0.5!r}")
            lines.append("L 1 0 3 0 0 0 0 0")
        lines.append("L 2 0 0 4 0 0 0 0")
        root = tree_from_lines(lines)
        assert tree_to_lines(root) == lines
        assert predict_tree(root, np.full(7, 1e9)) == 2

    @pytest.mark.parametrize("lines, message", [
        (["I 0 zero", "L 0 1 0 0 0 0 0 0", "L 0 1 0 0 0 0 0 0"], "line 1: could not convert"),
        (["I -2 0.5", "L 0 1 0 0 0 0 0 0", "L 0 1 0 0 0 0 0 0"], "line 1: negative feature"),
        (["I 0 0.5 9", "L 0 1 0 0 0 0 0 0", "L 0 1 0 0 0 0 0 0"], "line 1: internal node line has 4"),
        ([], "ended mid-node after line 0"),
    ], ids=["bad-threshold", "negative-feature", "long-internal", "empty"])
    def test_malformed_lines_named(self, lines, message):
        with pytest.raises(ValueError, match=message):
            tree_from_lines(lines)

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("I 0 0.5\n\nL 0 1 0 0 0 0 0 0\nQ\n")
        with pytest.raises(ValueError, match="line 4: unknown node tag 'Q'"):
            load_tree(str(path))


class TestConfig:
    def test_min_split_lower_bound(self):
        with pytest.raises(ValueError):
            TreeConfig(min_samples_split=1)


class TestFitRejects:
    def test_label_outside_classes(self):
        with pytest.raises(ValueError, match="labels"):
            fit_tree(np.zeros((3, 2)), np.array([0, 7, 1]))

    def test_zero_features(self):
        with pytest.raises(ValueError, match="features"):
            fit_tree(np.zeros((3, 0)), np.array([0, 1, 1]))


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
