import io
import re

import numpy as np
import pytest

from conftest import class_histogram, denormalize_pixels, make_fer_csv, one_hot, random_rows
from fer_forge.data import (
    DataFormatError,
    LabeledDataset,
    batches,
    histogram_csv,
    normalize_pixels,
    parse_fer_csv,
    random_split,
    split_dataset,
)


def parse_text(text):
    return parse_fer_csv(io.StringIO(text))


class TestParse:
    def test_counts_and_fields(self):
        records = parse_text(make_fer_csv(random_rows(9, seed=0)))
        assert len(records) == 9
        assert all(r.pixels.shape == (2304,) for r in records)
        assert [r.emotion for r in records] == [i % 7 for i in range(9)]

    def test_row_major_reshape(self):
        # sequence values stay within the 0..255 pixel range via mod 256
        rows = [(0, [i % 256 for i in range(2304)], "Training")]
        ds = LabeledDataset.from_records(parse_text(make_fer_csv(rows)))
        image = denormalize_pixels(ds.images[0, 0])
        for r, c in [(0, 0), (0, 47), (1, 0), (20, 33), (47, 47)]:
            assert round(float(image[r, c])) == (48 * r + c) % 256

    def test_short_pixel_row_names_row(self):
        rows = [(0, [0] * 2304, "Training"), (1, [0] * 2303, "Training")]
        with pytest.raises(DataFormatError, match="row 3"):
            parse_text(make_fer_csv(rows))

    def test_non_integer_pixel(self):
        text = "emotion,pixels,Usage\n0," + "1 " * 2303 + "x,Training\n"
        with pytest.raises(DataFormatError, match="row 2"):
            parse_text(text)

    def test_pixel_out_of_range(self):
        rows = [(0, [300] + [0] * 2303, "Training")]
        with pytest.raises(DataFormatError, match="0..255"):
            parse_text(make_fer_csv(rows))

    def test_pixel_overflowing_int32_names_row(self):
        text = make_fer_csv([(0, [0] * 2304, "Training")]) + "1," + "0 " * 2303 + "99999999999,Training\n"
        with pytest.raises(DataFormatError, match="row 3: pixel value outside 0..255"):
            parse_text(text)

    def test_emotion_out_of_range(self):
        rows = [(7, [0] * 2304, "Training")]
        with pytest.raises(DataFormatError, match="emotion"):
            parse_text(make_fer_csv(rows))

    def test_unknown_usage(self):
        rows = [(0, [0] * 2304, "Validation")]
        with pytest.raises(DataFormatError, match="usage"):
            parse_text(make_fer_csv(rows))

    def test_wrong_column_count(self):
        text = "emotion,pixels,Usage\n0,1 2 3\n"
        with pytest.raises(DataFormatError, match="columns"):
            parse_text(text)

    def test_bad_header(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_text("foo,bar\n")

    def test_empty_file(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_text("")

    def test_usage_less_header_accepted(self):
        rows = [(2, [0] * 2304, None)]
        records = parse_text(make_fer_csv(rows, header="emotion,pixels"))
        assert records[0].usage == ""

    def test_crlf_line_endings(self, tmp_path):
        text = make_fer_csv(random_rows(3, seed=7)).replace("\n", "\r\n")
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode("utf-8"))
        records = parse_fer_csv(str(path))
        assert len(records) == 3

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        text = make_fer_csv(random_rows(3, seed=0)).encode("utf-8")
        at = text.index(b"\n", text.index(b"\n") + 1) + 3  # line 3, column 3: in the pixels
        path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        where = re.escape(str(path))
        with pytest.raises(DataFormatError, match=f"^{where}:3: not UTF-8: byte 0xff at column 3$"):
            parse_fer_csv(str(path))

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + make_fer_csv(random_rows(2, seed=8)).encode())
        assert len(parse_fer_csv(str(path))) == 2


def one_row(pixel_text):
    return parse_text(f"emotion,pixels,Usage\n0,{pixel_text},Training\n")


class TestPixelTextPinned:
    """Rows the bulk pixel parse misreads or refuses, with the validator's verdict."""

    PLAIN = ["7"] * 2303

    @pytest.mark.parametrize("pixel_text,message", [
        (" ".join(PLAIN + ["+"]), "non-integer pixel value"),
        (" ".join(PLAIN + ["-"]), "non-integer pixel value"),
        (" ".join(PLAIN[:2301] + ["1", "-", "2"]), "non-integer pixel value"),
        ("   ", "0 pixel values, expected 2304"),
        (" ".join(["65541"] + PLAIN), "pixel value outside 0..255"),
        (" ".join(["4294967301"] + PLAIN), "pixel value outside 0..255"),
        (" ".join(["99999999999999999999"] + PLAIN), "pixel value outside 0..255"),
    ], ids=["lone-plus", "lone-minus", "one-minus-two", "whitespace-only", "65541",
            "2**32+5", "1e20"])
    def test_rejected_with_the_validator_message(self, pixel_text, message):
        with pytest.raises(DataFormatError, match=f"^row 2: {message}$"):
            one_row(pixel_text)

    @pytest.mark.parametrize("word,value", [("1_0", 10), ("\u0663", 3)])
    def test_int_literal_forms_accepted(self, word, value):
        (record,) = one_row(" ".join([word] + self.PLAIN))
        assert record.pixels.dtype == np.uint8
        assert record.pixels[0] == value and (record.pixels[1:] == 7).all()


class TestSplit:
    def test_usage_partition(self):
        records = parse_text(make_fer_csv(random_rows(12, seed=1)))
        train, test = split_dataset(records)
        assert len(train) == 4  # every third row is Training
        assert len(test) == 8
        assert len(train) + len(test) == len(records)

    def test_images_are_the_bytes_of_per_record_normalize_pixels(self):
        records = parse_text(make_fer_csv(random_rows(12, seed=4)))
        for dataset, training in zip(split_dataset(records), (True, False)):
            side = [r for r in records if (r.usage == "Training") == training]
            expected = np.stack([normalize_pixels(r.pixels).reshape(1, 48, 48) for r in side])
            assert dataset.images.dtype == np.float32
            assert dataset.images.tobytes() == expected.tobytes()

    def test_empty_input(self):
        train, test = split_dataset([])
        assert len(train) == 0 and len(test) == 0

    def test_random_fallback_for_untagged(self):
        rows = random_rows(20, seed=2, usage_cycle=(None,))
        records = parse_text(make_fer_csv(rows, header="emotion,pixels"))
        train, test = split_dataset(records, seed=5)
        assert len(train) == 16 and len(test) == 4

    def test_random_split_partition_disjoint(self):
        rows = random_rows(25, seed=3, usage_cycle=(None,))
        records = parse_text(make_fer_csv(rows, header="emotion,pixels"))
        train, test = random_split(records, seed=1)
        # identity disjointness: every record lands in exactly one side
        key = lambda img: img.tobytes()
        train_keys = {key(train.images[i]) for i in range(len(train))}
        test_keys = {key(test.images[i]) for i in range(len(test))}
        assert not train_keys & test_keys
        assert len(train) + len(test) == 25


class TestOneHot:
    def test_examples(self):
        assert np.array_equal(one_hot(3), [0, 0, 0, 1, 0, 0, 0])
        assert np.array_equal(one_hot(0), [1, 0, 0, 0, 0, 0, 0])

    def test_sums_to_one(self):
        for label in range(7):
            assert one_hot(label).sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(7)
        with pytest.raises(ValueError):
            one_hot(-1)

    def test_dataset_onehots_valid(self):
        records = parse_text(make_fer_csv(random_rows(10, seed=4)))
        ds = LabeledDataset.from_records(records)
        assert np.array_equal(ds.onehots.sum(axis=1), np.ones(10))
        assert np.array_equal(ds.onehots.argmax(axis=1), ds.labels)


class TestHistogram:
    def test_counts_sum_to_size(self):
        records = parse_text(make_fer_csv(random_rows(13, seed=5)))
        ds = LabeledDataset.from_records(records)
        counts = class_histogram(ds)
        assert counts.sum() == 13

    def test_empty_all_zero(self):
        ds = LabeledDataset.from_records([])
        assert not class_histogram(ds).any()

    def test_csv_shape(self):
        records = parse_text(make_fer_csv(random_rows(7, seed=6)))
        text = histogram_csv([r.emotion for r in records])
        lines = text.strip().split("\n")
        assert lines[0] == "class,name,count"
        assert len(lines) == 8
        assert lines[2].startswith("1,disgust,")


class TestNormalization:
    def test_endpoints(self):
        assert normalize_pixels(np.array([0])) == 0.0
        assert normalize_pixels(np.array([255])) == 1.0

    def test_round_trip_within_half_step(self):
        pixels = np.arange(256, dtype=np.uint8)
        back = denormalize_pixels(normalize_pixels(pixels))
        assert np.abs(back - pixels).max() <= 255.0 / 510.0


class TestBatches:
    def _dataset(self, n, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.random((n, 1, 48, 48), dtype=np.float32)
        # tag every sample so batches can be traced back
        images[:, 0, 0, 0] = np.arange(n) / 255.0
        labels = rng.integers(0, 7, n)
        onehots = np.zeros((n, 7), dtype=np.float32)
        onehots[np.arange(n), labels] = 1.0
        return LabeledDataset(images, labels, onehots)

    def test_sizes_with_short_final_batch(self):
        ds = self._dataset(10)
        sizes = [x.shape[0] for x, _ in batches(ds, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        ds = self._dataset(20)
        a = np.concatenate([x[:, 0, 0, 0] for x, _ in batches(ds, 6, seed=3)])
        b = np.concatenate([x[:, 0, 0, 0] for x, _ in batches(ds, 6, seed=3)])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        ds = self._dataset(50)
        a = np.concatenate([x[:, 0, 0, 0] for x, _ in batches(ds, 10, seed=1)])
        b = np.concatenate([x[:, 0, 0, 0] for x, _ in batches(ds, 10, seed=2)])
        assert not np.array_equal(a, b)

    def test_epoch_is_permutation(self):
        ds = self._dataset(17)
        seen = np.concatenate([x[:, 0, 0, 0] for x, _ in batches(ds, 5, seed=4)])
        assert np.array_equal(np.sort(np.round(seen * 255.0)), np.arange(17))

    def test_onehots_track_images(self):
        ds = self._dataset(12)
        for x, y in batches(ds, 5, seed=5):
            idx = np.round(x[:, 0, 0, 0] * 255.0).astype(int)
            assert np.array_equal(y.argmax(axis=1), ds.labels[idx])

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batches(self._dataset(4), 0, seed=0))
