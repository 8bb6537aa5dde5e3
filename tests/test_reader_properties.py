"""Property tests for the cascade, PGM/PPM and FER CSV readers.

Any input either loads or raises the reader's documented error, and
``fer-forge detect`` exits 0 or 2 on it, never 1. The CSV reader returns
what the per-row validator in ``csv_oracle`` returns, or raises its message.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dark_top_cascade_doc
from csv_oracle import parse_fer_text
from fer_forge import facedetect as fd
from fer_forge.cli import main
from fer_forge.data import PIXELS_PER_IMAGE, DataFormatError, parse_fer_csv

SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# any JSON value, with the numbers that break int() and float() conversion
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


def maybe(strategy):
    """The field's well-formed value most of the time, anything else sometimes."""
    return st.one_of(strategy, strategy, strategy, values)


rects = st.lists(maybe(st.lists(maybe(st.integers(0, 12)), min_size=4, max_size=4).map(
    lambda r: r + [0.0])), min_size=0, max_size=4)
stumps = st.fixed_dictionaries({
    "rects": maybe(rects), "threshold": maybe(st.floats(-2, 2)),
    "left": maybe(st.floats(-1, 1)), "right": maybe(st.floats(-1, 1)),
})
stages = st.fixed_dictionaries({
    "threshold": maybe(st.floats(-3, 3)), "stumps": maybe(st.lists(stumps, max_size=3)),
})
cascade_docs = st.fixed_dictionaries({
    "window_width": maybe(st.integers(1, 12)), "window_height": maybe(st.integers(1, 12)),
    "stages": maybe(st.lists(stages, max_size=3)),
})


def json_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


cascade_files = st.one_of(
    cascade_docs.map(json_bytes),
    st.tuples(cascade_docs.map(json_bytes), st.integers(0, 200), st.binary(min_size=1, max_size=3))
    .map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]),  # stray bytes, often not UTF-8
    st.binary(max_size=64),
)


def pnm_header(magic, width, height, maxval) -> bytes:
    return magic + f"\n{width} {height}\n{maxval}\n".encode("ascii")


pnm_files = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"P5", b"P6", b"P2", b"P5#"]), st.integers(-1, 6),
              st.integers(-1, 6), st.integers(-1, 300), st.binary(max_size=120))
    .map(lambda t: pnm_header(*t[:4]) + t[4]),
)


@SETTINGS
@given(doc=cascade_docs)
def test_parse_cascade_loads_or_raises_format_error(doc):
    try:
        cascade = fd.parse_cascade(doc)
    except fd.CascadeFormatError:
        return
    assert isinstance(cascade, fd.CascadeModel)


@SETTINGS
@given(data=cascade_files)
def test_load_cascade_loads_or_raises_format_error(tmp_path, data):
    path = tmp_path / "cascade.json"
    path.write_bytes(data)
    try:
        fd.load_cascade(str(path))
    except fd.CascadeFormatError:
        pass


@SETTINGS
@given(data=pnm_files)
def test_read_pnm_loads_or_raises_format_error(tmp_path, data):
    path = tmp_path / "image.pgm"
    path.write_bytes(data)
    try:
        image = fd.read_pnm(str(path))
    except fd.PnmFormatError:
        return
    assert image.dtype == np.uint8 and image.ndim in (2, 3)


@pytest.fixture
def frame(tmp_path):
    path = tmp_path / "frame.pgm"
    fd.write_pnm(str(path), np.random.default_rng(0).integers(0, 256, (14, 16)).astype(np.uint8))
    return str(path)


@SETTINGS
@given(data=cascade_files)
def test_detect_exits_0_or_2_on_any_cascade_file(tmp_path, frame, data):
    path = tmp_path / "cascade.json"
    path.write_bytes(data)
    assert main(["detect", "--cascade", str(path), "--image", frame, "--stats"]) in (0, 2)


@SETTINGS
@given(data=pnm_files)
def test_detect_exits_0_or_2_on_any_image_file(tmp_path, data):
    cascade = tmp_path / "cascade.json"
    cascade.write_text(json.dumps(dark_top_cascade_doc(window=4)))
    image = tmp_path / "image.pgm"
    image.write_bytes(data)
    assert main(["detect", "--cascade", str(cascade), "--image", str(image)]) in (0, 2)


@pytest.mark.parametrize("data,message", [
    (b"\xff\xfe{\x00}\x00", "not UTF-8: byte 0xff at offset 0"),
    (b'{"window_width": 2\xe9}', "at offset 18"),
    (b"[" * 100_000, "not valid JSON"),
    (b"1" * 5000, "not valid JSON"),
    (json_bytes({"window_width": 1e999, "window_height": 4, "stages": []}), "malformed"),
    (json_bytes({"window_width": 10**400, "window_height": 4, "stages": [{
        "threshold": 0, "stumps": [{"rects": [[0, 0, 1, 1, 0.0]], "threshold": 0,
                                    "left": 0, "right": 0}]}]}), "malformed"),
])
def test_bad_cascade_file_exits_2_naming_the_fault(tmp_path, frame, capsys, data, message):
    path = tmp_path / "cascade.json"
    path.write_bytes(data)
    assert main(["detect", "--cascade", str(path), "--image", frame]) == 2
    assert message in capsys.readouterr().err


# what the numpy text parser and str.split disagree on: signs, ASCII and
# other whitespace, digit separators, a non-ASCII digit, float and hex marks
PIXEL_ALPHABET = "0123456789+- \t\x0b\x1c\xa0_\u0663.ex"
noise_words = st.one_of(
    st.sampled_from(["+", "-", "+5", "-0", "256", "65541", "4294967301",
                     "99999999999999999999", "1_0", "\u0663", " ", "\t"]),
    st.text(PIXEL_ALPHABET, min_size=1, max_size=8),
    st.integers(0, 10**20).map(str),
)


@st.composite
def pixel_texts(draw):
    """Noise alone, or noise words spliced into a run of plain pixel values.

    The run is as long as a full row would be with the noise words counted
    as pixels, give or take one.
    """
    if draw(st.booleans()):
        return draw(st.text(PIXEL_ALPHABET, max_size=24))
    noise = draw(st.lists(noise_words, min_size=1, max_size=3))
    count = PIXELS_PER_IMAGE - len(noise) + draw(st.sampled_from([0, 0, -1, 1]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 256, count)
    words = [str(v) for v in values]
    for word in noise:
        at = draw(st.one_of(st.just(0), st.just(len(words)), st.integers(0, len(words))))
        words.insert(at, word)
    separator = draw(st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c", "\xa0"]))
    return separator.join(words)


def parse_outcome(parse, text):
    """Records as plain values, or the DataFormatError message."""
    try:
        return [(r.emotion, r.pixels.dtype, r.pixels.tolist(), r.usage) for r in parse(text)]
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(pixels=pixel_texts())
def test_parse_fer_csv_agrees_with_the_row_validator(pixels):
    text = f"emotion,pixels,Usage\n3,{pixels},Training\n"
    got = parse_outcome(lambda t: parse_fer_csv(io.StringIO(t)), text)
    assert got == parse_outcome(parse_fer_text, text)
