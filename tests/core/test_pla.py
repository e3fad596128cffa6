"""Tests for the PLA implementation models (sections 4.2, 4.3.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.firsthit import NO_HIT, first_hit
from repro.core.pla import FullKiPLA, K1PLA, NextHitPLA, pla_product_terms
from repro.errors import ConfigurationError
from repro.types import Vector


class TestNextHitPLA:
    def test_matches_theorem(self):
        from repro.core.firsthit import next_hit

        pla = NextHitPLA(16)
        for stride in range(1, 100):
            assert pla.lookup(stride) == next_hit(stride, 16)

    def test_table_size(self):
        assert len(NextHitPLA(16)) == 16
        assert len(NextHitPLA(4)) == 4

    def test_invalid_banks(self):
        with pytest.raises(ConfigurationError):
            NextHitPLA(10)


class TestK1PLA:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_first_hit_index_matches_reference(self, m):
        """The PLA + multiply path computes the same K_i as the theorem,
        for every stride class and bank distance."""
        pla = K1PLA(m)
        for stride in range(1, 2 * m + 1):
            # A long vector so K_i < L never filters results.
            v = Vector(base=0, stride=stride, length=4 * m + 1)
            for bank in range(m):
                expected = first_hit(v, bank, m)
                got = pla.first_hit_index(stride, bank)  # d == bank (b0=0)
                assert got == expected, (m, stride, bank)

    def test_entry_exposes_decomposition(self):
        pla = K1PLA(16)
        entry = pla.entry(12)  # 12 = 3 * 2^2
        assert entry.s == 2
        assert entry.delta == 4
        assert not entry.power_of_two

    def test_power_of_two_flag(self):
        pla = K1PLA(16)
        assert pla.entry(8).power_of_two
        assert pla.entry(16).power_of_two
        assert not pla.entry(6).power_of_two

    def test_no_hit_for_wrong_distance(self):
        pla = K1PLA(16)
        # stride 4 (s=2): only distances that are multiples of 4 hit.
        assert pla.first_hit_index(4, 1) is None
        assert pla.first_hit_index(4, 2) is None
        assert pla.first_hit_index(4, 4) is not None

    def test_single_bank_stride(self):
        pla = K1PLA(16)
        assert pla.first_hit_index(16, 0) == 0
        for d in range(1, 16):
            assert pla.first_hit_index(16, d) is None


class TestFullKiPLA:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_equivalent_to_k1_design(self, m):
        full = FullKiPLA(m)
        k1 = K1PLA(m)
        for stride in range(m):
            for d in range(m):
                assert full.first_hit_index(stride, d) == k1.first_hit_index(
                    stride, d
                )

    def test_table_is_m_squared(self):
        assert len(FullKiPLA(8)) == 64
        assert len(FullKiPLA(16)) == 256


class TestScaling:
    def test_full_ki_grows_quadratically(self):
        """Section 4.3.1: full-Ki PLA complexity ~ M^2, K1 PLA ~ M."""
        t8 = pla_product_terms(8, "full_ki")
        t16 = pla_product_terms(16, "full_ki")
        t32 = pla_product_terms(32, "full_ki")
        # Roughly x4 per doubling.
        assert 3.0 < t16 / t8 < 5.0
        assert 3.0 < t32 / t16 < 5.0

    def test_k1_grows_linearly(self):
        assert pla_product_terms(8, "k1") == 8
        assert pla_product_terms(16, "k1") == 16
        assert pla_product_terms(32, "k1") == 32

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            pla_product_terms(16, "magic")


@given(
    stride=st.integers(1, 300),
    base=st.integers(0, 300),
    m=st.sampled_from([2, 4, 8, 16, 32]),
)
@settings(max_examples=150)
def test_k1_pla_with_nonzero_base(stride, base, m):
    """The PLA works on bank distance d = (b - b0) mod M; combined with
    the decoder it reproduces first_hit for arbitrary bases."""
    pla = K1PLA(m)
    v = Vector(base=base, stride=stride, length=8 * m)
    b0 = base % m
    for bank in range(m):
        d = (bank - b0) % m
        assert pla.first_hit_index(stride, d) == first_hit(v, bank, m)


class TestSharedK1PLA:
    """The process-wide memoized K1 PLA (one compiled table per bank
    count, shared by every system instance)."""

    def test_same_bank_count_shares_one_instance(self):
        from repro.core.pla import shared_k1_pla

        assert shared_k1_pla(16) is shared_k1_pla(16)

    def test_distinct_bank_counts_get_distinct_tables(self):
        from repro.core.pla import shared_k1_pla

        assert shared_k1_pla(8) is not shared_k1_pla(16)
        assert len(shared_k1_pla(8)) != len(shared_k1_pla(16))

    def test_systems_share_the_compiled_table(self):
        from repro.api import build_system
        from repro.params import SystemParams

        fast = SystemParams(sim_mode="fast")
        reference = SystemParams(sim_mode="reference")
        first = build_system("pva-sdram", fast)
        second = build_system("pva-sdram", fast)
        assert first._bank_side._pla is second._bank_side._pla
        # The reference backend's bank controllers read the same table.
        for system in (
            build_system("pva-sdram", reference),
            build_system("pva-sdram", reference),
        ):
            for bank in system.banks:
                assert bank.fhp.pla is first._bank_side._pla

    def test_shared_table_is_immutable(self):
        """No aliasing hazard: the shared entries are frozen, so one
        system cannot perturb another through the cache."""
        import dataclasses

        from repro.core.pla import shared_k1_pla

        entry = shared_k1_pla(16).entry(12)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.s = 99

    def test_shared_table_matches_fresh_table(self):
        from repro.core.pla import shared_k1_pla

        fresh = K1PLA(16)
        shared = shared_k1_pla(16)
        for stride in range(1, 40):
            for d in range(16):
                assert shared.first_hit_index(
                    stride, d
                ) == fresh.first_hit_index(stride, d)
