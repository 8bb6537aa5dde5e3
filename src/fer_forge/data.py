"""FER-2013 ingestion: CSV parsing, label encoding, splitting and batching.

The expected input is the standard CSV with header ``emotion,pixels,Usage``,
one row per image: a class index 0-6, a string of 2304 space-separated
pixel values, and a usage tag. Pixels are reshaped row-major to 48x48 and
normalized to [0,1]. The dataset itself is never bundled; callers supply
the file.
"""

import csv
import warnings
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

NUM_CLASSES = 7
IMAGE_SIDE = 48
PIXELS_PER_IMAGE = IMAGE_SIDE * IMAGE_SIDE
EMOTION_NAMES = ("angry", "disgust", "fear", "happy", "sad", "surprise", "neutral")
USAGE_TAGS = ("Training", "PublicTest", "PrivateTest")
HEADER = ("emotion", "pixels", "Usage")
HEADER_NO_USAGE = ("emotion", "pixels")


class DataFormatError(ValueError):
    """Malformed CSV content; the message names the offending row."""


@dataclass
class FerRecord:
    emotion: int
    pixels: np.ndarray  # 2304 uint8 values, row-major 48x48
    usage: str


@dataclass
class LabeledDataset:
    """Normalized images with integer labels and one-hot targets."""

    images: np.ndarray  # [N,1,48,48] float32 in [0,1]
    labels: np.ndarray  # [N] int64 in 0..6
    onehots: np.ndarray  # [N,7] float32

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(self.images[idx], self.labels[idx], self.onehots[idx])

    @classmethod
    def from_records(cls, records: Iterable[FerRecord]) -> "LabeledDataset":
        records = list(records)
        n = len(records)
        pixels = (np.stack([rec.pixels for rec in records]) if n
                  else np.zeros((0, PIXELS_PER_IMAGE), dtype=np.uint8))
        images = normalize_pixels(pixels).reshape(n, 1, IMAGE_SIDE, IMAGE_SIDE)
        labels = np.array([rec.emotion for rec in records], dtype=np.int64)
        onehots = np.zeros((n, NUM_CLASSES), dtype=np.float32)
        if n:
            onehots[np.arange(n), labels] = 1.0
        return cls(images, labels, onehots)


def normalize_pixels(pixels: np.ndarray) -> np.ndarray:
    """Map 0..255 linearly onto [0,1], as a new float32 array."""
    images = np.array(pixels, dtype=np.float32)
    images /= 255.0  # in place: a whole dataset takes one float32 copy, not two
    return images


def parse_fer_csv(source: str | IO[str]) -> list[FerRecord]:
    """Parse a FER-2013 CSV from a path or text stream.

    Malformed rows raise DataFormatError naming the row number; nothing is
    silently skipped.
    """
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return _parse_rows(csv.reader(fh))
        except UnicodeDecodeError:
            raise DataFormatError(first_non_utf8(source)) from None
    return _parse_rows(csv.reader(source))


def first_non_utf8(path: str) -> str:
    """``path:line: not UTF-8: ...`` for the first byte of a file that is not UTF-8."""
    with open(path, "rb") as fh:
        for line_num, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"{path}:{line_num}: not UTF-8: byte 0x{line[exc.start]:02x} "
                        f"at column {exc.start + 1}")
    return f"{path}: not UTF-8"


def _parse_rows(reader) -> list[FerRecord]:
    records = []
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty file: missing header row") from None
    header = tuple(h.strip() for h in header)
    if header == HEADER:
        has_usage = True
    elif header == HEADER_NO_USAGE:
        has_usage = False
    else:
        raise DataFormatError(f"bad header {header!r}, expected {','.join(HEADER)}")
    columns = 3 if has_usage else 2
    with warnings.catch_warnings():
        # numpy 1.x warns, where 2.x raises, when fromstring stops short of the text's end
        warnings.filterwarnings("error", "string or file could not be read", DeprecationWarning)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != columns:
                raise DataFormatError(f"row {row_num}: expected {columns} columns, got {len(row)}")
            emotion_s, pixel_s = row[0].strip(), row[1]
            usage = row[2].strip() if has_usage else ""
            try:
                emotion = int(emotion_s)
            except ValueError:
                raise DataFormatError(f"row {row_num}: non-integer emotion {emotion_s!r}") from None
            if not 0 <= emotion < NUM_CLASSES:
                raise DataFormatError(f"row {row_num}: emotion {emotion} outside 0..6")
            pixels = _plain_pixels(pixel_s)
            if pixels is None:
                pixels = _validated_pixels(pixel_s, row_num)
            if has_usage and usage not in USAGE_TAGS:
                raise DataFormatError(f"row {row_num}: unknown usage tag {usage!r}")
            records.append(FerRecord(emotion, pixels.astype(np.uint8), usage))
    return records


def _plain_pixels(text: str) -> np.ndarray | None:
    """The pixels of ``text`` if it is plain, else None for ``_validated_pixels`` to judge.

    Plain is 2304 unsigned decimal values in 0..255 between ASCII whitespace,
    read in one ``np.fromstring`` call. What fromstring misreads is declined:
    a lone sign reads as 0 or as the next value's sign (the sign test), and
    whitespace alone reads as one 0 (the count). int64 clips huge values
    rather than wrapping them into range.
    """
    if "+" in text or "-" in text:
        return None
    try:
        pixels = np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if pixels.size != PIXELS_PER_IMAGE or pixels.max() > 255:  # unsigned, so none is < 0
        return None
    return pixels


def _validated_pixels(text: str, row_num: int) -> np.ndarray:
    """The pixels of any row ``_plain_pixels`` declines, or the DataFormatError naming it."""
    try:
        pixels = np.array(text.split(), dtype=np.int32)
    except ValueError:
        raise DataFormatError(f"row {row_num}: non-integer pixel value") from None
    except OverflowError:
        raise DataFormatError(f"row {row_num}: pixel value outside 0..255") from None
    if pixels.size != PIXELS_PER_IMAGE:
        raise DataFormatError(
            f"row {row_num}: {pixels.size} pixel values, expected {PIXELS_PER_IMAGE}"
        )
    if pixels.min() < 0 or pixels.max() > 255:
        raise DataFormatError(f"row {row_num}: pixel value outside 0..255")
    return pixels


def split_dataset(
    records: list[FerRecord], seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Usage-tag split: Training vs PublicTest+PrivateTest.

    Reproduces the canonical 28,709 / 7,178 partition on the full file.
    Records without usage tags fall back to a seeded random 80:20 split.
    """
    if records and not all(r.usage for r in records):
        return random_split(records, seed)
    train = [r for r in records if r.usage == "Training"]
    test = [r for r in records if r.usage != "Training"]
    return LabeledDataset.from_records(train), LabeledDataset.from_records(test)


def random_split(records: list[FerRecord], seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded 80:20 fallback for files without meaningful usage tags."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_test = int(round(len(records) * 0.2))
    test_idx = set(order[:n_test].tolist())
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return LabeledDataset.from_records(train), LabeledDataset.from_records(test)


def histogram_csv(labels) -> str:
    """``class,name,count`` rows of how many of ``labels`` each class holds."""
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    lines = ["class,name,count"]
    lines += [f"{i},{EMOTION_NAMES[i]},{int(c)}" for i, c in enumerate(counts)]
    return "\n".join(lines) + "\n"


def batches(dataset: LabeledDataset, batch_size: int, seed: int = 0):
    """One epoch of (images, onehots) batches in a seeded shuffled order.

    The final short batch is included, so the epoch is a permutation of
    the dataset.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.onehots[idx]
