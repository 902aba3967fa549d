"""Tests for distributions, ensembles and the Section 5 classes."""

import itertools
import random

import pytest

from repro.distributions import (
    ALL,
    PSI_C,
    PSI_L,
    SINGLETON,
    UNIFORM,
    Distribution,
    all_equal,
    bernoulli_product,
    leaky_singleton,
    near_product_mixture,
    noisy_copy,
    parity,
    singleton,
    uniform,
)
from repro.errors import DistributionError


class TestDistributionCore:
    def test_validation(self):
        with pytest.raises(DistributionError):
            Distribution(2, {(0, 0): 0.4})  # does not sum to 1
        with pytest.raises(DistributionError):
            Distribution(2, {(0, 2): 1.0})  # not a bit vector
        with pytest.raises(DistributionError):
            Distribution(2, {(0,): 1.0})  # wrong length
        with pytest.raises(DistributionError):
            Distribution(0, {(): 1.0})

    def test_normalization(self):
        d = Distribution(1, {(0,): 0.5000001, (1,): 0.5})
        assert abs(sum(d.probs.values()) - 1.0) < 1e-12

    def test_sampling_matches_table(self):
        d = bernoulli_product([0.2, 0.8])
        rng = random.Random(0)
        counts = {}
        for _ in range(4000):
            v = d.sample(rng)
            counts[v] = counts.get(v, 0) + 1
        assert abs(counts.get((0, 1), 0) / 4000 - 0.64) < 0.04
        assert abs(counts.get((1, 0), 0) / 4000 - 0.04) < 0.02

    def test_marginal(self):
        d = parity(3)
        m = d.marginal([1])
        assert m.probability((0,)) == pytest.approx(0.5)
        m12 = d.marginal([1, 2])
        assert m12.probability((1, 1)) == pytest.approx(0.25)

    def test_marginal_order_respected(self):
        d = bernoulli_product([0.9, 0.1])
        assert d.marginal([2, 1]).probability((1, 0)) == pytest.approx(0.1 * 0.1)

    def test_marginal_range_validated(self):
        with pytest.raises(DistributionError):
            uniform(2).marginal([3])

    def test_conditional(self):
        d = parity(3)
        c = d.conditional({1: 0, 2: 0})
        assert c.probability((0, 0, 0)) == pytest.approx(1.0)

    def test_conditional_zero_mass_rejected(self):
        with pytest.raises(DistributionError):
            all_equal(2).conditional({1: 0, 2: 1})

    def test_join(self):
        left = singleton([1])
        right = uniform(1)
        joined = left.join(right)
        assert joined.n == 2
        assert joined.probability((1, 0)) == pytest.approx(0.5)
        assert joined.probability((0, 0)) == 0.0

    def test_tv_distance(self):
        assert uniform(2).tv_distance(uniform(2)) == 0.0
        assert singleton([0, 0]).tv_distance(singleton([1, 1])) == 1.0
        assert parity(2).tv_distance(uniform(2)) == pytest.approx(0.5)

    def test_tv_dimension_mismatch(self):
        with pytest.raises(DistributionError):
            uniform(2).tv_distance(uniform(3))

    def test_is_trivial(self):
        assert singleton([1, 1]).is_trivial()
        assert not uniform(2).is_trivial()


class TestGapComputations:
    def test_products_have_zero_gaps(self):
        for d in (uniform(3), bernoulli_product([0.2, 0.7, 0.5]), singleton([0, 1, 0])):
            assert d.product_gap() == pytest.approx(0.0, abs=1e-9)
            assert d.local_independence_gap() == pytest.approx(0.0, abs=1e-9)

    def test_all_equal_has_large_gaps(self):
        d = all_equal(3)
        assert d.product_gap() > 0.3
        assert d.local_independence_gap() == pytest.approx(0.5)

    def test_parity_marginals_uniform_but_conditionals_pinned(self):
        d = parity(3)
        # Every single coordinate is uniform...
        for c in (1, 2, 3):
            assert d.marginal([c]).probability((1,)) == pytest.approx(0.5)
        # ...but conditioning on the others determines it completely.
        assert d.local_independence_gap() == pytest.approx(0.5)
        assert d.product_gap() == pytest.approx(0.5)

    def test_near_product_mixture_separates_psi_l_from_psi_c(self):
        d = near_product_mixture(4, delta=0.1)
        assert d.product_gap() < 0.15            # close to product: inside Psi_C
        # Conditioning amplifies the small TV gap by an order of magnitude:
        # P(x1=1 | rest=111) ≈ 0.65 while the marginal stays at 0.5.
        assert d.local_independence_gap() > 0.1  # clearly outside Psi_L
        assert d.local_independence_gap() > d.product_gap()

    def test_noisy_copy_gap_scales_with_noise(self):
        strong = noisy_copy(3, flip_probability=0.0)
        weak = noisy_copy(3, flip_probability=0.4)
        assert strong.local_independence_gap() > weak.local_independence_gap()

    def test_leaky_singleton_shape(self):
        d = leaky_singleton(4, free_coordinate=2, rest=[1, 0, 1], p=0.3)
        assert d.probability((1, 1, 0, 1)) == pytest.approx(0.3)
        assert d.probability((1, 0, 0, 1)) == pytest.approx(0.7)
        # It is locally independent (one free coordinate, rest constant).
        assert d.local_independence_gap() == pytest.approx(0.0, abs=1e-9)

    def test_leaky_singleton_validation(self):
        with pytest.raises(DistributionError):
            leaky_singleton(3, free_coordinate=5, rest=[0, 0])
        with pytest.raises(DistributionError):
            leaky_singleton(3, free_coordinate=1, rest=[0])
        with pytest.raises(DistributionError):
            leaky_singleton(3, free_coordinate=1, rest=[0, 0], p=0.0)


class TestClasses:
    def test_chain_on_uniform(self):
        d = uniform(3)
        assert not SINGLETON.contains(d)
        assert UNIFORM.contains(d)
        assert PSI_L.contains(d)
        assert PSI_C.contains(d)
        assert ALL.contains(d)

    def test_chain_on_singletons(self):
        for d in (singleton(v) for v in itertools.product((0, 1), repeat=3)):
            assert SINGLETON.contains(d)
            assert PSI_L.contains(d)
            assert PSI_C.contains(d)

    def test_biased_product_in_psi_l_not_uniform(self):
        d = bernoulli_product([0.3, 0.5, 0.5])
        assert not UNIFORM.contains(d)
        assert not SINGLETON.contains(d)
        assert PSI_L.contains(d)

    def test_mixture_in_psi_c_not_psi_l(self):
        d = near_product_mixture(4, delta=0.1)
        assert PSI_C.contains(d)
        assert not PSI_L.contains(d)

    def test_parity_outside_psi_c(self):
        d = parity(4)
        assert not PSI_C.contains(d)
        assert not PSI_L.contains(d)
        assert ALL.contains(d)

    def test_all_equal_outside_psi_c(self):
        assert not PSI_C.contains(all_equal(4))
