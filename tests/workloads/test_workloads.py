"""Structural tests for the workload generators."""

import pytest

from repro.platform.calibration import (
    CHOLESKY_TILE_BYTES,
    DATA_SIZE_BYTES,
    TASK_FLOPS_GEMM,
    TASK_FLOPS_SQUARE,
)
from repro.workloads import (
    cholesky_tasks,
    matmul2d,
    matmul3d,
    random_bipartite,
    sparse_matmul2d,
)


class TestMatmul2d:
    def test_counts(self):
        g = matmul2d(7)
        assert g.n_tasks == 49
        assert g.n_data == 14

    def test_task_reads_one_row_one_column(self):
        g = matmul2d(5)
        for t in g.tasks:
            row, col = t.inputs
            assert row < 5 <= col

    def test_row_major_submission(self):
        g = matmul2d(3)
        # first three tasks share row datum 0
        assert [g.inputs_of(i)[0] for i in range(3)] == [0, 0, 0]
        assert [g.inputs_of(i)[1] for i in range(3)] == [3, 4, 5]

    def test_every_datum_used_n_times(self):
        g = matmul2d(6)
        assert all(g.degree(d) == 6 for d in range(g.n_data))

    def test_working_set_matches_paper_axis(self):
        g = matmul2d(5)
        assert g.working_set_bytes == pytest.approx(10 * DATA_SIZE_BYTES)

    def test_default_calibration(self):
        g = matmul2d(2)
        assert g.data[0].size == DATA_SIZE_BYTES
        assert g.tasks[0].flops == TASK_FLOPS_GEMM

    def test_randomized_keeps_structure(self):
        a = matmul2d(5, randomized=True, seed=1)
        b = matmul2d(5)
        assert a.n_tasks == b.n_tasks
        assert sorted(t.name for t in a.tasks) == sorted(
            t.name for t in b.tasks
        )

    def test_randomized_changes_order(self):
        a = matmul2d(5, randomized=True, seed=1)
        b = matmul2d(5)
        assert [t.name for t in a.tasks] != [t.name for t in b.tasks]

    def test_randomized_deterministic_per_seed(self):
        a = matmul2d(5, randomized=True, seed=1)
        b = matmul2d(5, randomized=True, seed=1)
        assert [t.name for t in a.tasks] == [t.name for t in b.tasks]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            matmul2d(0)


class TestMatmul3d:
    def test_counts_with_c(self):
        g = matmul3d(3)
        assert g.n_tasks == 27
        assert g.n_data == 27  # 3 * 3^2

    def test_counts_without_c(self):
        g = matmul3d(3, include_c=False)
        assert g.n_data == 18
        assert g.max_task_arity() == 2

    def test_three_inputs_per_task(self):
        g = matmul3d(2)
        assert all(len(t.inputs) == 3 for t in g.tasks)

    def test_sharing_degrees(self):
        g = matmul3d(4)
        # every A/B/C block is read by exactly n tasks
        assert all(g.degree(d) == 4 for d in range(g.n_data))

    def test_square_block_flops(self):
        g = matmul3d(2)
        assert g.tasks[0].flops == TASK_FLOPS_SQUARE

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            matmul3d(0)


class TestCholesky:
    def test_task_counts(self):
        n = 5
        g = cholesky_tasks(n)
        expected = (
            n + n * (n - 1) // 2 * 2 + n * (n - 1) * (n - 2) // 6
        )
        assert g.n_tasks == expected

    def test_data_are_lower_triangle_tiles(self):
        n = 4
        g = cholesky_tasks(n)
        assert g.n_data == n * (n + 1) // 2

    def test_kernel_flops_hierarchy(self):
        g = cholesky_tasks(4)
        by_kind = {}
        for t in g.tasks:
            by_kind.setdefault(t.name.split("(")[0], t.flops)
        assert by_kind["POTRF"] < by_kind["TRSM"] == by_kind["SYRK"]
        assert by_kind["GEMM"] == 2 * by_kind["TRSM"]

    def test_gemm_has_three_inputs(self):
        g = cholesky_tasks(4)
        gemms = [t for t in g.tasks if t.name.startswith("GEMM")]
        assert gemms and all(len(t.inputs) == 3 for t in gemms)

    def test_potrf_reads_diagonal_only(self):
        g = cholesky_tasks(3)
        potrf = [t for t in g.tasks if t.name.startswith("POTRF")]
        assert all(len(t.inputs) == 1 for t in potrf)

    def test_uses_tile_bytes(self):
        g = cholesky_tasks(2)
        assert g.data[0].size == CHOLESKY_TILE_BYTES


class TestSparse:
    def test_density_roughly_respected(self):
        g = sparse_matmul2d(50, density=0.02, seed=0)
        assert 20 <= g.n_tasks <= 90  # ~50 expected of 2500

    def test_unused_data_dropped(self):
        g = sparse_matmul2d(50, density=0.02, seed=0)
        assert all(g.degree(d) >= 1 for d in range(g.n_data))

    def test_at_least_one_task(self):
        g = sparse_matmul2d(3, density=0.01, seed=0)
        assert g.n_tasks >= 1

    def test_deterministic(self):
        a = sparse_matmul2d(30, density=0.05, seed=9)
        b = sparse_matmul2d(30, density=0.05, seed=9)
        assert [t.name for t in a.tasks] == [t.name for t in b.tasks]

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            sparse_matmul2d(10, density=0.0)
        with pytest.raises(ValueError):
            sparse_matmul2d(10, density=1.5)

    def test_density_one_is_dense(self):
        g = sparse_matmul2d(4, density=1.0)
        assert g.n_tasks == 16


class TestRandomBipartite:
    def test_shape(self):
        g = random_bipartite(10, 6, arity=3, seed=1)
        assert g.n_tasks == 10
        assert g.n_data == 6
        assert all(len(t.inputs) == 3 for t in g.tasks)

    def test_heterogeneous_sizes(self):
        g = random_bipartite(5, 5, seed=1, heterogeneous_sizes=True)
        sizes = {d.size for d in g.data}
        assert len(sizes) > 1
        assert all(0.5 <= s <= 2.0 for s in sizes)

    def test_heterogeneous_sizes_are_whole_bytes(self):
        g = random_bipartite(
            40, 20, data_size=1000.0, seed=2, heterogeneous_sizes=True
        )
        assert all(d.size.is_integer() for d in g.data)
        assert all(500 <= d.size <= 2000 for d in g.data)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            random_bipartite(3, 2, arity=5)

    def test_deterministic(self):
        a = random_bipartite(8, 4, seed=3)
        b = random_bipartite(8, 4, seed=3)
        assert [t.inputs for t in a.tasks] == [t.inputs for t in b.tasks]
