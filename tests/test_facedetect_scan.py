"""The array scan and the component grouping against the per-window oracle.

``facedetect_oracle`` holds the original per-window ``detect`` and the
quadratic ``group_hits``. Both detectors must hand ``group_hits`` the same
hit list in the same order and print the same ``detections_csv``; both
groupings must return the same detections.
"""

import json

import numpy as np
import pytest

import facedetect_oracle as oracle
from conftest import accept_all_cascade_doc, reject_all_cascade_doc
from fer_forge import facedetect as fd
from fer_forge.cli import main


def random_cascade_doc(rng: np.random.Generator) -> dict:
    """1-4 stages of 1-3 stumps of 1-3 rects, weights cancelling exactly.

    A stage threshold is either near the middle of the stump votes or
    exactly one of their sums, so each stage passes some windows, rejects
    others, and may tie with some.
    """
    ww, wh = int(rng.integers(6, 11)), int(rng.integers(6, 11))

    def rect():
        x, y = int(rng.integers(0, ww)), int(rng.integers(0, wh))
        return [x, y, int(rng.integers(1, ww - x + 1)), int(rng.integers(1, wh - y + 1))]

    stages = []
    for _ in range(int(rng.integers(1, 5))):
        stumps = []
        for _ in range(int(rng.integers(1, 4))):
            rects = [rect() for _ in range(int(rng.integers(1, 4)))]
            weights = list(rng.uniform(-2.0, 2.0, len(rects) - 1))
            weights.append(-sum(wt * r[2] * r[3] for wt, r in zip(weights, rects))
                           / (rects[-1][2] * rects[-1][3]))
            left, right = sorted(rng.uniform(-1.0, 1.0, 2))
            stumps.append({"rects": [r + [float(wt)] for r, wt in zip(rects, weights)],
                           "threshold": float(rng.normal(0.0, 1.0)),
                           "left": float(left), "right": float(right)})
        if rng.random() < 0.5:  # a reachable vote sum, summed in stump order: some windows tie
            threshold = 0.0
            for s in stumps:
                threshold += s["left"] if rng.random() < 0.5 else s["right"]
        else:
            middle = sum((s["left"] + s["right"]) / 2 for s in stumps)
            gap = min(s["right"] - s["left"] for s in stumps)
            threshold = middle + float(rng.uniform(-0.4, 0.4)) * gap
        stages.append({"threshold": threshold, "stumps": stumps})
    return {"window_width": ww, "window_height": wh, "stages": stages}


def random_image(kind: str, rng: np.random.Generator, h: int = 20, w: int = 24) -> np.ndarray:
    if kind == "int":
        return rng.integers(0, 256, (h, w))
    if kind == "float":
        return rng.normal(120.0, 50.0, (h, w))
    return fd.to_grayscale(rng.integers(0, 256, (h, w, 3)).astype(np.uint8))


def run_detect(module, cascade, gray, **kwargs):
    """(hit list handed to group_hits, detections) of ``module.detect``."""
    seen = []
    grouping = module.group_hits

    def spy(hits, min_neighbors):
        seen.append(list(hits))
        return grouping(hits, min_neighbors)

    module.group_hits = spy
    try:
        detections = module.detect(cascade, gray, **kwargs)
    finally:
        module.group_hits = grouping
    return (seen[0] if seen else None), detections


def scan_loop_windows(cascade, h, w, scale_factor) -> int:
    """Windows the scale loop visits, counted one scale at a time."""
    total, scale = 0, 1.0
    while True:
        win_w = int(round(cascade.window_w * scale))
        win_h = int(round(cascade.window_h * scale))
        if win_w > w or win_h > h:
            return total
        step = max(1, int(round(scale)))
        total += len(range(0, h - win_h + 1, step)) * len(range(0, w - win_w + 1, step))
        scale *= scale_factor


CASES = [  # (image kind, scale factor)
    ("int", 1.1), ("float", 1.25), ("rgb", 1.5), ("int", 1.5), ("float", 1.1), ("rgb", 1.25),
]


class TestScanMatchesOracle:
    @pytest.mark.parametrize("kind,factor", CASES)
    def test_random_cascades(self, kind, factor):
        rng = np.random.default_rng([len(kind), int(factor * 100)])
        gray = random_image(kind, rng)
        hit_counts, windows = [], 0
        for _ in range(3):
            cascade = fd.parse_cascade(random_cascade_doc(rng))
            kw = {"scale_factor": factor, "min_neighbors": 2}
            new_hits, new = run_detect(fd, cascade, gray, **kw)
            old_hits, old = run_detect(oracle, cascade, gray, **kw)
            assert new_hits == old_hits
            assert fd.detections_csv(new) == fd.detections_csv(old)
            hit_counts.append(len(new_hits))
            windows += scan_loop_windows(cascade, *gray.shape, factor)
        assert 0 < sum(hit_counts) < windows  # stages both pass and reject windows

    @pytest.mark.parametrize("factor", [1.1, 1.25, 1.5])
    @pytest.mark.parametrize("doc", [accept_all_cascade_doc(8), reject_all_cascade_doc(8, 3)],
                             ids=["accept-all", "reject-all"])
    def test_accept_and_reject_all(self, doc, factor):
        gray = random_image("int", np.random.default_rng(5), 17, 19)
        cascade = fd.parse_cascade(doc)
        new_hits, new = run_detect(fd, cascade, gray, scale_factor=factor)
        old_hits, old = run_detect(oracle, cascade, gray, scale_factor=factor)
        assert new_hits == old_hits
        assert fd.detections_csv(new) == fd.detections_csv(old)

    def test_row_blocks_keep_raster_order(self, monkeypatch):
        """A block of one row at a time gives the same hits and counts as one block per scale."""
        rng = np.random.default_rng(6)
        gray = random_image("int", rng, 22, 25)
        cascade = fd.parse_cascade(random_cascade_doc(rng))
        rows, blocked_rows = [], []
        whole = run_detect(fd, cascade, gray, scale_factor=1.25, on_scale=lambda *r: rows.append(r))
        monkeypatch.setattr(fd, "_CHUNK_WINDOWS", 1)
        blocked = run_detect(fd, cascade, gray, scale_factor=1.25,
                             on_scale=lambda *r: blocked_rows.append(r))
        assert blocked == whole and blocked_rows == rows
        assert whole == run_detect(oracle, cascade, gray, scale_factor=1.25)


def box_sets():
    rng = np.random.default_rng(8)
    yield "empty", []
    yield "single", [(3, 4, 10, 10)]
    yield "duplicates", [(5, 5, 12, 12)] * 4 + [(40, 5, 12, 12)] * 2
    # hits 0-2 and 1-2 overlap by exactly half, 0-1 not at all: 0 and 1 join only through 2
    yield "chain", [(0, 0, 10, 10), (10, 0, 10, 10), (5, 0, 10, 10), (30, 30, 4, 4)]
    yield "nested-sizes", [(0, 0, 40, 40), (10, 10, 10, 10), (12, 12, 8, 8), (60, 60, 8, 8)]
    for seed in range(4):
        n = int(rng.integers(50, 300))
        sizes = rng.integers(6, 40, n)
        yield f"random-{seed}", [
            (int(x), int(y), int(s), int(s * r))
            for x, y, s, r in zip(rng.integers(-20, 200, n), rng.integers(0, 150, n), sizes,
                                  rng.uniform(0.8, 1.25, n))
        ]
    # dense clusters stacked in a column: they share x, so only the y bands keep them apart
    centres = [(20, 60 * k) for k in range(5)]
    yield "column-of-clusters", [
        (int(cx + dx), int(cy + dy), 24, 24)
        for cx, cy in centres for dx, dy in rng.integers(-4, 5, (80, 2))
    ]


class TestGroupHitsMatchesOracle:
    @pytest.mark.parametrize("name,hits", list(box_sets()), ids=[n for n, _ in box_sets()])
    @pytest.mark.parametrize("chunk", [fd._CHUNK_PAIRS, 1], ids=["default-chunk", "chunk-1"])
    def test_same_detections(self, name, hits, chunk, monkeypatch):
        monkeypatch.setattr(fd, "_CHUNK_PAIRS", chunk)
        for min_neighbors in (1, 2, 3):
            assert fd.group_hits(hits, min_neighbors) == oracle.group_hits(hits, min_neighbors)

    def test_hit_order_sets_cluster_order(self):
        hits = [(50, 50, 10, 10), (0, 0, 10, 10), (51, 50, 10, 10), (1, 0, 10, 10)]
        grouped = fd.group_hits(hits, 1)
        assert [d.x for d in grouped] == [50, 0]
        assert grouped == oracle.group_hits(hits, 1)


class TestScanStats:
    def _collect(self, cascade, gray, **kwargs):
        rows = []
        hits, detections = run_detect(
            fd, cascade, gray, on_scale=lambda *row: rows.append(row), **kwargs)
        return rows, hits, detections

    def test_counts_match_scan_loop_and_hits(self):
        rng = np.random.default_rng(9)
        gray = random_image("int", rng)
        cascade = fd.parse_cascade(random_cascade_doc(rng))
        rows, hits, detections = self._collect(cascade, gray, scale_factor=1.25)
        assert sum(windows for _, _, windows, _ in rows) == scan_loop_windows(
            cascade, *gray.shape, 1.25)
        assert sum(survivors[-1] for *_, survivors in rows) == len(hits)
        assert detections == run_detect(fd, cascade, gray, scale_factor=1.25)[1]
        for scale, size, windows, survivors in rows:
            assert size == (round(cascade.window_w * scale), round(cascade.window_h * scale))
            assert len(survivors) == len(cascade.stages)
            assert windows >= survivors[0] and survivors == sorted(survivors, reverse=True)

    def test_survivors_match_per_window_stage_counts(self):
        """Survivors after stage k = windows the oracle takes past stage k."""
        rng = np.random.default_rng(10)
        gray = random_image("float", rng, 20, 22)
        cascade = fd.parse_cascade(random_cascade_doc(rng))
        ii, ii_sq = fd.integral_image(gray), fd.integral_image(np.square(gray))
        rows, _, _ = self._collect(cascade, gray, scale_factor=1.5)
        for scale, (win_w, win_h), _, survivors in rows:
            step = max(1, int(round(scale)))
            expected = [0] * len(cascade.stages)
            for y in range(0, gray.shape[0] - win_h + 1, step):
                for x in range(0, gray.shape[1] - win_w + 1, step):
                    reached = []
                    passed = oracle.eval_window(cascade, ii, ii_sq, x, y, scale, reached.append)
                    for k in range(len(reached) - 1 + passed):
                        expected[k] += 1
            assert survivors == expected

    def test_cascade_without_stages_accepts_every_window(self):
        cascade = fd.parse_cascade({"window_width": 6, "window_height": 5, "stages": []})
        gray = random_image("int", np.random.default_rng(12), 12, 13)
        rows, hits, _ = self._collect(cascade, gray, scale_factor=1.5)
        assert [survivors for *_, survivors in rows] == [[]] * len(rows)
        assert len(hits) == sum(windows for _, _, windows, _ in rows) > 0
        assert hits == run_detect(oracle, cascade, gray, scale_factor=1.5)[0]

    def test_cli_stats_on_stderr_only(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        image = tmp_path / "frame.pgm"
        fd.write_pnm(str(image), rng.integers(0, 256, (30, 36)).astype(np.uint8))
        cascade_path = tmp_path / "cascade.json"
        doc = random_cascade_doc(rng)
        cascade_path.write_text(json.dumps(doc))
        argv = ["detect", "--cascade", str(cascade_path), "--image", str(image),
                "--min-neighbors", "1"]

        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--stats"]) == 0
        stats = capsys.readouterr()
        assert stats.out == plain.out and plain.err == ""

        header, *lines = stats.err.splitlines()
        n_stages = len(doc["stages"])
        assert header.split(",") == ["scale", "win_w", "win_h", "windows"] + [
            f"stage{i}_survivors" for i in range(n_stages)]
        cascade = fd.parse_cascade(doc)
        rows = [[int(v) for v in line.split(",")[1:]] for line in lines]
        assert all(len(row) == 3 + n_stages for row in rows)
        assert sum(row[2] for row in rows) == scan_loop_windows(cascade, 30, 36, 1.1)
        gray = fd.to_grayscale(fd.read_pnm(str(image)))
        hits, _ = run_detect(fd, cascade, gray, min_neighbors=1)
        assert sum(row[-1] for row in rows) == len(hits)
