import logging

import numpy as np
import pytest

from conftest import (
    accept_all_cascade_doc,
    dark_top_cascade_doc,
    reject_all_cascade_doc,
)
from facedetect_oracle import eval_window, rect_sum
from fer_forge.facedetect import (
    CascadeFormatError,
    Detection,
    PnmFormatError,
    bilinear_resize,
    detect,
    detections_csv,
    group_hits,
    integral_image,
    parse_cascade,
    preprocess_face,
    read_pnm,
    to_grayscale,
    write_pnm,
)


def reference_bilinear(image, out_h, out_w):
    """Independently coded bilinear resampler, same half-pixel convention."""
    h, w = image.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * h / out_h - 0.5, 0), h - 1)
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0), w - 1)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                image[y0, x0] * (1 - fy) * (1 - fx)
                + image[y0, x1] * (1 - fy) * fx
                + image[y1, x0] * fy * (1 - fx)
                + image[y1, x1] * fy * fx
            )
    return out


def dark_top_image(size=24, top=50, bottom=200):
    img = np.full((size, size), bottom, dtype=np.int64)
    img[: size // 2] = top
    return img


class TestIntegralImage:
    def test_two_by_two_ones(self):
        ii = integral_image(np.ones((2, 2), dtype=np.int64))
        assert np.array_equal(ii, [[0, 0, 0], [0, 1, 2], [0, 2, 4]])

    def test_all_zero(self):
        assert not integral_image(np.zeros((5, 7), dtype=np.int64)).any()

    def test_first_row_and_column_zero(self):
        ii = integral_image(np.random.default_rng(0).integers(0, 256, (6, 9)))
        assert not ii[0].any() and not ii[:, 0].any()

    def test_random_rects_match_brute_force(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (16, 16))
        ii = integral_image(img)
        for _ in range(100):
            x, y = int(rng.integers(0, 15)), int(rng.integers(0, 15))
            w, h = int(rng.integers(1, 16 - x + 1)), int(rng.integers(1, 16 - y + 1))
            assert rect_sum(ii, x, y, w, h) == img[y : y + h, x : x + w].sum()

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            integral_image(np.zeros((0, 4)))


class TestEvalWindow:
    """The oracle's one-window classifier, which the array scan is checked against."""

    def _tables(self, img):
        return integral_image(img), integral_image(np.square(img.astype(np.int64)))

    def test_accept_all(self):
        cascade = parse_cascade(accept_all_cascade_doc())
        img = np.random.default_rng(2).integers(0, 256, (24, 24))
        ii, ii_sq = self._tables(img)
        assert eval_window(cascade, ii, ii_sq, 0, 0)

    def test_reject_all_short_circuits(self):
        cascade = parse_cascade(reject_all_cascade_doc(stages=3))
        img = np.random.default_rng(3).integers(0, 256, (24, 24))
        ii, ii_sq = self._tables(img)
        evaluated = []
        assert not eval_window(cascade, ii, ii_sq, 0, 0, on_stage=evaluated.append)
        assert evaluated == [0]

    def test_accept_all_multi_stage_evaluates_every_stage(self):
        doc = accept_all_cascade_doc()
        doc["stages"] = doc["stages"] * 3
        cascade = parse_cascade(doc)
        img = np.random.default_rng(4).integers(0, 256, (24, 24))
        ii, ii_sq = self._tables(img)
        evaluated = []
        assert eval_window(cascade, ii, ii_sq, 0, 0, on_stage=evaluated.append)
        assert evaluated == [0, 1, 2]

    def test_dark_top_stump_accepts_and_rejects(self):
        cascade = parse_cascade(dark_top_cascade_doc())
        dark_top = dark_top_image()
        inverted = dark_top[::-1].copy()
        ii, ii_sq = self._tables(dark_top)
        assert eval_window(cascade, ii, ii_sq, 0, 0)
        ii, ii_sq = self._tables(inverted)
        assert not eval_window(cascade, ii, ii_sq, 0, 0)


class TestCascadeValidation:
    def test_rect_outside_window_rejected(self):
        doc = accept_all_cascade_doc()
        doc["stages"][0]["stumps"][0]["rects"][0] = [20, 20, 10, 10, 1.0]
        with pytest.raises(CascadeFormatError, match="outside"):
            parse_cascade(doc)

    def test_unbalanced_weights_rejected(self):
        doc = accept_all_cascade_doc()
        doc["stages"][0]["stumps"][0]["rects"] = [[0, 0, 24, 24, 1.0]]
        with pytest.raises(CascadeFormatError, match="cancel"):
            parse_cascade(doc)

    def test_too_many_rects_rejected(self):
        doc = accept_all_cascade_doc()
        rect = [0, 0, 24, 24, 0.0]
        doc["stages"][0]["stumps"][0]["rects"] = [rect, rect, rect, rect]
        with pytest.raises(CascadeFormatError, match="1-3"):
            parse_cascade(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(CascadeFormatError):
            parse_cascade({"window_width": 24})


class TestDetect:
    def test_blank_image_no_detections(self):
        cascade = parse_cascade(dark_top_cascade_doc())
        blank = np.full((40, 40), 128, dtype=np.int64)
        assert detect(cascade, blank, min_neighbors=1) == []

    def test_accept_all_single_placement(self):
        cascade = parse_cascade(accept_all_cascade_doc())
        img = np.random.default_rng(5).integers(0, 256, (24, 24))
        hits = detect(cascade, img, min_neighbors=1)
        assert len(hits) == 1
        assert hits[0] == Detection(0, 0, 24, 24, neighbors=1)

    def test_min_neighbors_monotonicity(self):
        cascade = parse_cascade(accept_all_cascade_doc())
        img = np.random.default_rng(6).integers(0, 256, (30, 30))
        loose = {(d.x, d.y, d.w, d.h) for d in detect(cascade, img, min_neighbors=1)}
        strict = {(d.x, d.y, d.w, d.h) for d in detect(cascade, img, min_neighbors=3)}
        assert strict <= loose

    def test_affine_intensity_invariance(self):
        cascade = parse_cascade(dark_top_cascade_doc())
        base = np.zeros((36, 36), dtype=np.float64)
        base[:, :] = 128.0
        base[4:16, 6:30] = 40.0  # dark band produces dark-top windows below it
        shifted = 2.0 * base + 10.0
        assert detect(cascade, base, min_neighbors=1) == detect(
            cascade, shifted, min_neighbors=1
        )

    def test_image_smaller_than_window_warns_and_returns_empty(self, caplog):
        cascade = parse_cascade(accept_all_cascade_doc())
        with caplog.at_level(logging.WARNING):
            result = detect(cascade, np.zeros((10, 10), dtype=np.int64))
        assert result == []
        assert "smaller than base window" in caplog.text

    def test_detections_csv_shape(self):
        rows = [Detection(1, 2, 24, 24, 3)]
        assert detections_csv(rows) == "x,y,w,h,neighbors\n1,2,24,24,3\n"


class TestGroupHits:
    def test_overlapping_hits_merge_to_mean_box(self):
        hits = [(10, 10, 20, 20), (12, 10, 20, 20), (11, 11, 20, 20)]
        grouped = group_hits(hits, min_neighbors=2)
        assert grouped == [Detection(11, 10, 20, 20, neighbors=3)]

    def test_disjoint_hits_stay_separate(self):
        hits = [(0, 0, 10, 10), (50, 50, 10, 10)]
        grouped = group_hits(hits, min_neighbors=1)
        assert len(grouped) == 2

    def test_min_neighbors_filters_small_clusters(self):
        hits = [(0, 0, 10, 10), (50, 50, 10, 10), (51, 50, 10, 10)]
        grouped = group_hits(hits, min_neighbors=2)
        assert grouped == [Detection(50, 50, 10, 10, neighbors=2)]

    def test_empty_input(self):
        assert group_hits([], min_neighbors=1) == []


class TestPreprocessFace:
    def test_white_rgb_maps_to_white_gray(self):
        rgb = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert np.allclose(to_grayscale(rgb), 255.0)

    def test_luma_weights(self):
        pixel = np.array([[[100, 50, 200]]], dtype=np.uint8)
        expected = 0.299 * 100 + 0.587 * 50 + 0.114 * 200
        assert to_grayscale(pixel)[0, 0] == pytest.approx(expected)

    def test_constant_crop_resizes_to_constant(self):
        for size in (17, 48, 96):
            img = np.full((size, size), 77, dtype=np.uint8)
            out = preprocess_face(img, Detection(0, 0, size, size, 0))
            assert out.shape == (1, 48, 48)
            assert np.allclose(out, 77.0 / 255.0, atol=1e-6)

    def test_pattern_matches_reference_within_one_gray_level(self):
        img = np.full((96, 96), 40.0)
        img[::2, ::2] = 200.0
        out = preprocess_face(img, Detection(0, 0, 96, 96, 0))
        ref = reference_bilinear(img, 48, 48) / 255.0
        assert np.abs(out[0] - ref).max() <= 1.0 / 255.0

    def test_output_shape_and_range(self):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (60, 80, 3)).astype(np.uint8)
        out = preprocess_face(img, Detection(5, 10, 40, 30, 0))
        assert out.shape == (1, 48, 48)
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_degenerate_box_rejected(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        with pytest.raises(ValueError):
            preprocess_face(img, Detection(0, 0, 0, 5, 0))
        with pytest.raises(ValueError):
            preprocess_face(img, Detection(15, 15, 10, 10, 0))

    def test_bilinear_identity_at_same_size(self):
        img = np.random.default_rng(8).random((12, 12))
        assert np.allclose(bilinear_resize(img, 12, 12), img)


class TestPnmIO:
    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(9).integers(0, 256, (7, 11)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(10).integers(0, 256, (5, 6, 3)).astype(np.uint8)
        path = str(tmp_path / "img.ppm")
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_comments_in_header(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pnm(path), [[1, 2], [3, 4]])

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n0")
        with pytest.raises(PnmFormatError, match="magic"):
            read_pnm(path)

    def test_sixteen_bit_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PnmFormatError, match="maxval"):
            read_pnm(path)

    def test_low_maxval_rescaled_to_8_bit(self, tmp_path):
        path = str(tmp_path / "grey.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 1\n15\n" + bytes([0, 8, 7, 15]))
        img = read_pnm(path)
        assert img.dtype == np.uint8
        assert np.array_equal(img, [[0, 136, 119, 255]])

    def test_low_maxval_ppm_rescaled(self, tmp_path):
        path = str(tmp_path / "bits.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 1\n1\n" + bytes([0, 1, 1, 1, 0, 0]))
        assert np.array_equal(read_pnm(path), [[[0, 255, 255], [255, 0, 0]]])

    def test_sample_above_maxval_names_byte(self, tmp_path):
        path = str(tmp_path / "hot.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n3 1\n15\n" + bytes([3, 15, 16]))
        with pytest.raises(PnmFormatError, match="exceeds maxval 15 at byte 12"):
            read_pnm(path)

    def test_truncated_raster_names_byte(self, tmp_path):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(PnmFormatError, match="byte"):
            read_pnm(path)
