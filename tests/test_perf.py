"""Performance model: Table I counts (paper's exact numbers) and roofline."""

import numpy as np
import pytest

from repro.perf import (
    EDISON,
    OPERATOR_COUNTS,
    PAPER_COUNTS,
    MachineModel,
    apply_time_per_element,
    efficiency_metrics,
    modeled_apply_time,
    modeled_gflops,
    modeled_solve_time,
    table1_counts,
    table1_model,
)


class TestPaperCounts:
    """Pin the per-element numbers of Table I / SS III-D exactly."""

    def test_assembled(self):
        c = PAPER_COUNTS["asmb"]
        assert c.flops == 9216
        assert c.bytes_perfect_cache == 37248

    def test_matrix_free(self):
        c = PAPER_COUNTS["mf"]
        assert c.flops == 53622
        assert c.bytes_perfect_cache == 1008
        assert c.bytes_pessimal_cache == 2376

    def test_tensor(self):
        c = PAPER_COUNTS["tensor"]
        assert c.flops == 15228
        assert c.bytes_perfect_cache == 1008

    def test_tensor_c(self):
        c = PAPER_COUNTS["tensor_c"]
        assert c.flops == 14214
        assert c.bytes_perfect_cache == 4920
        assert c.bytes_pessimal_cache == 5832

    def test_arithmetic_intensity_range(self):
        """SS III-D: MF kernel intensity between 22.5 (pessimal) and 53
        (perfect) flops/byte."""
        c = PAPER_COUNTS["mf"]
        assert c.intensity_pessimal == pytest.approx(22.5, abs=0.2)
        assert c.intensity_perfect == pytest.approx(53.2, abs=0.2)

    def test_tensor_flop_reduction_factor(self):
        """Tensor kernel does ~3.5x fewer flops than the dense MF kernel."""
        ratio = PAPER_COUNTS["mf"].flops / PAPER_COUNTS["tensor"].flops
        assert 3.0 < ratio < 4.0

    def test_table_order(self):
        names = [c.name for c in table1_counts()]
        assert names == ["asmb", "mf", "tensor", "tensor_c"]


class TestImplementationCounts:
    """The implementation-true table diverges from the paper only where the
    code does (the packed Tensor-C apply); see repro.perf.counts."""

    def test_shared_rows_match_paper(self):
        for kind in ("asmb", "mf", "tensor"):
            assert OPERATOR_COUNTS[kind] == PAPER_COUNTS[kind]

    def test_tensor_c_streams_packed_storage(self):
        c = OPERATOR_COUNTS["tensor_c"]
        # 16 packed values/point + int64 gather indices + 8/27-node vectors
        assert c.bytes_perfect_cache == 8 * (2 * 8 * 3) + 8 * 16 * 27 + 8 * 27
        assert c.bytes_pessimal_cache == 8 * (2 * 27 * 3) + 8 * 16 * 27 + 8 * 27
        # two factored gradient sweeps + the 153-flop pointwise contraction
        assert c.flops == 2 * 13122 + 27 * 153 == 30375

    def test_compiled_counts_the_factored_kernel(self):
        c = OPERATOR_COUNTS["tensor_compiled"]
        ref = OPERATOR_COUNTS["tensor_c"]
        # eight 1-D contractions of 27 x 5 flops per component each way
        # (+ 54 merge adds in the adjoint) around the same pointwise update
        line = 27 * 5
        assert c.flops == 3 * 8 * line + 27 * 153 + 3 * (8 * line + 54)
        assert c.flops == 10773 < ref.flops / 2.8
        # interleaving reorders the coefficient stream, it does not grow it
        assert (c.bytes_perfect_cache, c.bytes_pessimal_cache) == (
            ref.bytes_perfect_cache, ref.bytes_pessimal_cache
        )

    def test_newton_counts_the_rank_one_term(self):
        c = OPERATOR_COUNTS["newton"]
        ref = OPERATOR_COUNTS["tensor_compiled"]
        # M:g (9 mul + 8 add), a (M:g), t += (.) M (9 mul + 9 add) per point
        assert c.flops == ref.flops + 27 * (17 + 1 + 18) == 11745
        # plus the second stream: [a, M] = 10 doubles per point
        assert c.bytes_perfect_cache == ref.bytes_perfect_cache + 27 * 10 * 8
        assert c.bytes_pessimal_cache == ref.bytes_pessimal_cache + 27 * 10 * 8

    def test_coupled_counts_the_pressure_terms(self):
        """The coupled rows add, per point, the trace (2 adds, the
        diagonal of g K is formed anyway), four B u accumulations (8), the
        point pressure (7) and t -= P K^T (18), and stream w det psi_m
        (4 doubles per point) plus four pressures in and four rows out."""
        for name, ref in (("coupled", "tensor_compiled"),
                          ("coupled_newton", "newton")):
            c, v = OPERATOR_COUNTS[name], OPERATOR_COUNTS[ref]
            assert c.flops == v.flops + 27 * (2 + 8 + 7 + 18)
            extra = 8 * 4 * 27 + 8 * 2 * 4
            assert c.bytes_perfect_cache == v.bytes_perfect_cache + extra
            assert c.bytes_pessimal_cache == v.bytes_pessimal_cache + extra
        assert OPERATOR_COUNTS["coupled"].flops == 11718

    def test_divergence_counts_the_forward_sweep(self):
        """The divergence is the forward sweep (3 x 8 lines of 135 flops),
        the diagonal of g K (15), its trace (2) and the rows (8) per
        point; it streams K,
        w det psi_m, the gather map, the velocities and four rows out."""
        c = OPERATOR_COUNTS["divergence"]
        assert c.flops == 3 * 8 * 27 * 5 + 27 * (15 + 2 + 8) == 3915
        streams = 8 * (9 + 4) * 27 + 8 * 27 + 8 * 4
        assert c.bytes_perfect_cache == streams + 8 * 8 * 3
        assert c.bytes_pessimal_cache == streams + 8 * 27 * 3
        assert c.flops < OPERATOR_COUNTS["tensor_compiled"].flops / 2.5

    def test_compiled_memory_counts_whole_batches(self):
        from repro.perf.roofline import memory_bytes

        coeff = 27 * 16 * 8
        assert (memory_bytes("tensor_compiled", 64, 1)
                == memory_bytes("tensor_c", 64, 1))
        assert (memory_bytes("tensor_compiled", 27, 1)
                - memory_bytes("tensor_c", 27, 1)) == 5 * coeff

    def test_packed_storage_cuts_coefficient_memory(self):
        """The 16-value packing moves the ~4x memory cut the docstring
        promised: dense rank-4 stored 81 doubles/point."""
        from repro.perf.roofline import memory_bytes

        dense_coeff = 27 * 81 * 8
        packed = memory_bytes("tensor_c", nel=1000, nnodes=1)
        dense = packed - 1000 * 27 * 16 * 8 + 1000 * dense_coeff
        assert dense / packed > 4.0


class TestMachineModel:
    def test_edison_peak(self):
        """8 Edison nodes = 3686.4 GF/s peak (the paper's Table I caption)."""
        assert EDISON.peak_gflops(8) == pytest.approx(3686.4)

    def test_bandwidth_per_core_contention(self):
        assert EDISON.stream_gbytes_per_core == pytest.approx(89.0 / 24)


class TestRoofline:
    def test_assembled_is_bandwidth_bound(self):
        """The assembled SpMV time must equal the memory-streaming time."""
        t = apply_time_per_element("asmb", EDISON)
        c = OPERATOR_COUNTS["asmb"]
        bw = EDISON.stream_gbytes_per_core * EDISON.spmv_stream_fraction
        assert t == pytest.approx(c.bytes_perfect_cache / (bw * 1e9))

    def test_tensor_is_compute_bound(self):
        """The tensor kernel's time is set by flops, not bytes."""
        t = apply_time_per_element("tensor", EDISON)
        c = OPERATOR_COUNTS["tensor"]
        flop_rate = EDISON.peak_gflops_per_core * EDISON.mf_flop_fraction
        assert t == pytest.approx(c.flops / (flop_rate * 1e9))

    def test_modeled_ordering_matches_paper(self):
        """Modeled apply times reproduce SS IV-B's ordering: matrix-free is
        uniformly faster than assembled, tensor uniformly faster than
        matrix-free."""
        times = {k: modeled_apply_time(k, 64**3, 192) for k in OPERATOR_COUNTS}
        assert times["tensor"] < times["mf"] < times["asmb"]

    def test_paper_speedup_band(self):
        """Tensor vs assembled modeled speedup for operator application is
        order-of-magnitude-ish, consistent with the paper's ~2.7x solver
        and larger operator-level gains."""
        t_asmb = modeled_apply_time("asmb", 64**3, 192)
        t_tens = modeled_apply_time("tensor", 64**3, 192)
        assert 1.5 < t_asmb / t_tens < 15.0

    def test_gflops_accounting(self):
        t = modeled_apply_time("tensor", 1000, 1)
        gf = modeled_gflops("tensor", 1000, t)
        assert gf == pytest.approx(
            EDISON.peak_gflops_per_core * EDISON.mf_flop_fraction
        )

    def test_table1_model_rows(self):
        rows = table1_model()
        assert len(rows) == 4
        by_op = {r["operator"]: r for r in rows}
        assert by_op["tensor"]["time_ms"] < by_op["asmb"]["time_ms"]
        # mf achieves the highest GF/s but not the lowest time (SS IV-B)
        assert by_op["mf"]["gflops"] >= by_op["tensor"]["gflops"]

    def test_solve_time_scales_with_iterations(self):
        t1 = modeled_solve_time("tensor", 10**5, 192, iterations=50)
        t2 = modeled_solve_time("tensor", 10**5, 192, iterations=100)
        assert t2 == pytest.approx(2 * t1)

    def test_latency_term_hurts_small_subdomains(self):
        """Strong scaling saturates: at tiny elements/core the reduction
        latency dominates -- the communication threshold of Table III."""
        nel = 32**3
        t_big = modeled_solve_time("tensor", nel, 192, iterations=100)
        t_small = modeled_solve_time("tensor", nel, 48 * 1024, iterations=100)
        speedup = t_big / t_small
        assert speedup < (48 * 1024) / 192  # far from ideal

    def test_efficiency_metrics(self):
        m = efficiency_metrics(1000, 10, 2.0, flops_total=4e9)
        assert m["elements_per_core_per_s"] == pytest.approx(50.0)
        assert m["gflops"] == pytest.approx(2.0)
        assert m["gflops_per_core"] == pytest.approx(0.2)
