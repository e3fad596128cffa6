"""Tests for the Table 2 kernel definitions."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels.kernels import KERNELS, ArrayAccess, Kernel, kernel_by_name
from repro.types import AccessType


class TestTable2:
    def test_all_eight_patterns_present(self):
        assert set(KERNELS) == {
            "copy",
            "copy2",
            "saxpy",
            "scale",
            "scale2",
            "swap",
            "tridiag",
            "vaxpy",
        }

    def test_copy_pattern(self):
        k = kernel_by_name("copy")
        assert [(a.array, a.access) for a in k.pattern] == [
            ("x", AccessType.READ),
            ("y", AccessType.WRITE),
        ]
        assert k.unroll == 1

    def test_saxpy_reads_y_before_writing(self):
        k = kernel_by_name("saxpy")
        assert [(a.array, a.access) for a in k.pattern] == [
            ("x", AccessType.READ),
            ("y", AccessType.READ),
            ("y", AccessType.WRITE),
        ]

    def test_scale_read_modify_write(self):
        k = kernel_by_name("scale")
        assert k.arrays == ("x",)
        assert [(a.array, a.access) for a in k.pattern] == [
            ("x", AccessType.READ),
            ("x", AccessType.WRITE),
        ]

    def test_swap_touches_both_arrays_both_ways(self):
        k = kernel_by_name("swap")
        assert [(a.array, a.access) for a in k.pattern] == [
            ("x", AccessType.READ),
            ("y", AccessType.READ),
            ("x", AccessType.WRITE),
            ("y", AccessType.WRITE),
        ]

    def test_tridiag_has_shifted_x_read(self):
        """x[i-1] appears as a read at element offset -1 (Livermore 5)."""
        k = kernel_by_name("tridiag")
        offsets = {
            (a.array, a.access): a.offset_elements for a in k.pattern
        }
        assert offsets[("x", AccessType.READ)] == -1
        assert offsets[("x", AccessType.WRITE)] == 0
        assert k.arrays == ("x", "y", "z")

    def test_vaxpy_three_reads_one_write(self):
        k = kernel_by_name("vaxpy")
        assert [(a.array, a.access) for a in k.pattern] == [
            ("a", AccessType.READ),
            ("x", AccessType.READ),
            ("y", AccessType.READ),
            ("y", AccessType.WRITE),
        ]

    def test_unrolled_variants(self):
        assert kernel_by_name("copy2").unroll == 2
        assert kernel_by_name("scale2").unroll == 2

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            kernel_by_name("fft")


class TestKernelValidation:
    def test_pattern_array_must_be_declared(self):
        with pytest.raises(ConfigurationError):
            Kernel(
                name="bad",
                arrays=("x",),
                pattern=(ArrayAccess("z", AccessType.READ),),
            )

    def test_unroll_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Kernel(
                name="bad",
                arrays=("x",),
                pattern=(ArrayAccess("x", AccessType.READ),),
                unroll=0,
            )

    def test_commands_per_block(self):
        assert len(kernel_by_name("tridiag").pattern) == 4
