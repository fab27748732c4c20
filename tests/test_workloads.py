"""Tests for the workload specs and their executable kernels."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.workloads import (
    ALL_APPS,
    BENCHMARK_APPS,
    SMITH_WATERMAN,
    SORT,
    STATELESS_COST,
    VIDEO,
    MapReduceSort,
    SmithWaterman,
    StatelessCost,
    ThousandIslandScanner,
    XapianSearch,
)
from repro.workloads.smith_waterman import sw_score_matrix, sw_traceback
from repro.workloads.stateless import bilinear_resize
from repro.workloads.synthetic import SyntheticApp, make_synthetic


# --------------------------------------------------------------------- #
# Specs
# --------------------------------------------------------------------- #

def test_paper_max_packing_degrees():
    """The paper's P_max values on 10 GB instances: 40, 15, 30, 35."""
    assert VIDEO.max_packing_degree(10240) == 40
    assert SORT.max_packing_degree(10240) == 15
    assert STATELESS_COST.max_packing_degree(10240) == 30
    assert SMITH_WATERMAN.max_packing_degree(10240) == 35


def test_registries():
    assert set(BENCHMARK_APPS) == {"video", "sort", "stateless-cost"}
    assert set(ALL_APPS) == set(BENCHMARK_APPS) | {"smith-waterman", "xapian"}


def test_spec_validation():
    with pytest.raises(ValueError):
        make_synthetic(base_seconds=0.0)
    with pytest.raises(ValueError):
        make_synthetic(mem_mb=0)
    with pytest.raises(ValueError):
        make_synthetic(io_shared_fraction=1.5)
    with pytest.raises(ValueError):
        make_synthetic(pressure_per_gb=-0.1)


def test_mem_gb_conversion():
    assert make_synthetic(mem_mb=512).mem_gb == pytest.approx(0.5)


def test_max_packing_degree_floor_is_one():
    spec = make_synthetic(mem_mb=20480 // 2)
    assert spec.max_packing_degree(1024) == 1


def test_smith_waterman_is_most_compute_intensive():
    rates = {
        name: app.pressure_per_gb * app.mem_gb
        for name, app in ALL_APPS.items()
    }
    assert max(rates, key=rates.get) == "smith-waterman"


# --------------------------------------------------------------------- #
# Video kernel
# --------------------------------------------------------------------- #

def test_video_tasks_and_execution():
    app = ThousandIslandScanner(frames_per_chunk=2, frame_size=16)
    tasks = app.make_tasks(3, seed=1)
    assert len(tasks) == 3
    for task in tasks:
        value = app.run_task(task)
        assert app.validate_result(task, value)
        assert 0 <= value["label"] < 8


def test_video_deterministic_inputs():
    app = ThousandIslandScanner(frames_per_chunk=2, frame_size=16)
    a = app.make_tasks(2, seed=7)[0].payload
    b = app.make_tasks(2, seed=7)[0].payload
    assert np.array_equal(a, b)


def test_import_repro_does_not_load_scipy_signal():
    """Only the video kernel convolves, so it imports ``scipy.signal`` when
    it first runs: ``import repro`` (each CLI start) does not pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; raise SystemExit('scipy.signal' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
    )
    assert proc.returncode == 0


# --------------------------------------------------------------------- #
# Sort kernel
# --------------------------------------------------------------------- #

def test_sort_partitions_cover_dataset():
    app = MapReduceSort(partition_size=500)
    tasks = app.make_tasks(4, seed=3)
    total = sum(t.payload.size for t in tasks)
    assert total == 4 * 500


def test_sort_task_really_sorts():
    app = MapReduceSort(partition_size=500)
    task = app.make_tasks(2, seed=3)[0]
    value = app.run_task(task)
    assert app.validate_result(task, value)
    arr = value["sorted"]
    assert np.all(arr[:-1] <= arr[1:])


def test_sort_reduce_produces_global_order():
    app = MapReduceSort(partition_size=400)
    tasks = app.make_tasks(5, seed=9)
    results = [app.run_task(t) for t in tasks]
    merged = MapReduceSort.reduce(results)
    assert merged.size == sum(t.payload.size for t in tasks)
    assert np.all(merged[:-1] <= merged[1:])


# --------------------------------------------------------------------- #
# Stateless (image resize) kernel
# --------------------------------------------------------------------- #

def test_bilinear_resize_shape_and_range():
    image = np.random.default_rng(0).random((32, 32, 3), dtype=np.float32)
    out = bilinear_resize(image, 16, 16)
    assert out.shape == (16, 16, 3)
    assert out.min() >= image.min() - 1e-6
    assert out.max() <= image.max() + 1e-6


def test_bilinear_resize_identity_on_constant():
    image = np.full((8, 8), 0.5)
    out = bilinear_resize(image, 16, 16)
    assert np.allclose(out, 0.5)


def test_bilinear_resize_grayscale_squeezes():
    image = np.random.default_rng(0).random((8, 8))
    assert bilinear_resize(image, 4, 4).shape == (4, 4)


def test_bilinear_resize_preserves_corners():
    image = np.arange(16, dtype=float).reshape(4, 4)
    out = bilinear_resize(image, 8, 8)
    assert out[0, 0] == pytest.approx(image[0, 0])
    assert out[-1, -1] == pytest.approx(image[-1, -1])


def test_bilinear_rejects_tiny_input():
    with pytest.raises(ValueError):
        bilinear_resize(np.ones((1, 5)), 2, 2)


def test_stateless_app_roundtrip():
    app = StatelessCost(in_size=16, out_size=8)
    task = app.make_tasks(1, seed=0)[0]
    value = app.run_task(task)
    assert app.validate_result(task, value)


# --------------------------------------------------------------------- #
# Smith-Waterman kernel
# --------------------------------------------------------------------- #

def test_sw_known_alignment():
    query = np.frombuffer(b"ACACACTA", dtype=np.uint8)
    ref = np.frombuffer(b"AGCACACA", dtype=np.uint8)
    h = sw_score_matrix(query, ref, match=2, mismatch=-1, gap=-1)
    # The canonical example: optimal local alignment score is 12.
    assert int(h.max()) == 12


def test_sw_identical_sequences_score_full_match():
    seq = np.frombuffer(b"MKTWY", dtype=np.uint8)
    h = sw_score_matrix(seq, seq, match=3, mismatch=-2, gap=-3)
    assert int(h.max()) == 3 * len(seq)


def test_sw_matrix_nonnegative_and_zero_borders():
    rng = np.random.default_rng(0)
    q = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), size=12)
    r = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), size=20)
    h = sw_score_matrix(q, r)
    assert h.min() >= 0
    assert np.all(h[0, :] == 0) and np.all(h[:, 0] == 0)


def test_sw_traceback_alignment_consistency():
    seq = np.frombuffer(b"HEAGAWGHEE", dtype=np.uint8)
    ref = np.frombuffer(b"PAWHEAE", dtype=np.uint8)
    h = sw_score_matrix(seq, ref)
    aligned_q, aligned_r, score = sw_traceback(h, seq, ref)
    assert len(aligned_q) == len(aligned_r)
    assert score == int(h.max())
    assert score > 0


def test_sw_rejects_empty_sequence():
    with pytest.raises(ValueError):
        sw_score_matrix(np.array([], dtype=np.uint8), np.array([65], dtype=np.uint8))


def test_sw_app_finds_embedded_query():
    app = SmithWaterman(query_len=30, reference_len=90)
    for task in app.make_tasks(3, seed=5):
        value = app.run_task(task)
        assert app.validate_result(task, value)
        # The reference embeds a mutated copy: expect a strong score.
        assert value["score"] >= 30  # >= match * ~1/3 of the query


# --------------------------------------------------------------------- #
# Xapian kernel
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def xapian_app():
    return XapianSearch(n_docs=50, doc_len=60, vocab_size=300)


def test_xapian_search_returns_ranked_hits(xapian_app):
    tasks = xapian_app.make_tasks(5, seed=2)
    for task in tasks:
        value = xapian_app.run_task(task)
        assert xapian_app.validate_result(task, value)


def test_xapian_scores_descending(xapian_app):
    task = xapian_app.make_tasks(1, seed=4)[0]
    hits = xapian_app.run_task(task)["hits"]
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_xapian_rare_term_has_higher_idf(xapian_app):
    index = xapian_app.index
    # Token 0 is the most frequent in a Zipf corpus; a high-rank token rarer.
    rare = max(index.postings, key=lambda t: t)
    assert index.idf(rare) >= index.idf(0)


def test_xapian_unknown_token_idf_zero(xapian_app):
    assert xapian_app.index.idf(10**9) == 0.0


# --------------------------------------------------------------------- #
# Synthetic kernel
# --------------------------------------------------------------------- #

def test_synthetic_kernel_runs():
    app = SyntheticApp(working_set=128, sweeps=2)
    task = app.make_tasks(1, seed=0)[0]
    assert app.validate_result(task, app.run_task(task))
