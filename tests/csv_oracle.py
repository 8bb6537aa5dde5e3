"""Reference FER-2013 row reader: the per-row validator alone.

This is the package's earlier ``_parse_rows``, unchanged, kept as the
oracle for ``fer_forge.data.parse_fer_csv``: every row's pixel text goes
through ``str.split`` and one ``np.array(..., dtype=np.int32)``, with no
bulk fast path. The package must return the same records, or raise the
same ``DataFormatError`` message, for any input.
"""

import csv
import io

import numpy as np

from fer_forge.data import (
    HEADER,
    HEADER_NO_USAGE,
    NUM_CLASSES,
    PIXELS_PER_IMAGE,
    USAGE_TAGS,
    DataFormatError,
    FerRecord,
)


def parse_fer_text(text: str) -> list[FerRecord]:
    """The records of CSV ``text``, read row by row as the oracle reads them."""
    return _parse_rows(csv.reader(io.StringIO(text)))


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
        try:
            pixels = np.array(pixel_s.split(), dtype=np.int32)
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
        if has_usage and usage not in USAGE_TAGS:
            raise DataFormatError(f"row {row_num}: unknown usage tag {usage!r}")
        records.append(FerRecord(emotion, pixels.astype(np.uint8), usage))
    return records
