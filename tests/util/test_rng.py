"""Unit tests for the deterministic RNG."""

import pytest

from repro.util.rng import SplitMix, derive_seed, unit_floats


class TestSplitMix:
    def test_deterministic_sequence(self):
        a = SplitMix(42)
        b = SplitMix(42)
        assert [a.next_u64() for _ in range(10)] == [
            b.next_u64() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        assert SplitMix(1).next_u64() != SplitMix(2).next_u64()

    def test_outputs_fit_64_bits(self):
        rng = SplitMix(7)
        for _ in range(100):
            assert 0 <= rng.next_u64() < 1 << 64

    def test_random_unit_interval(self):
        rng = SplitMix(3)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_random_mean_near_half(self):
        rng = SplitMix(5)
        values = [rng.random() for _ in range(20_000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.01

    def test_randint_bounds(self):
        rng = SplitMix(9)
        for _ in range(1000):
            assert 3 <= rng.randint(3, 7) <= 7

    def test_randint_single_value(self):
        rng = SplitMix(9)
        assert rng.randint(5, 5) == 5

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            SplitMix(1).randint(5, 4)

    def test_randint_covers_range(self):
        rng = SplitMix(11)
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_bernoulli_extremes(self):
        rng = SplitMix(1)
        assert not rng.bernoulli(0.0)
        assert rng.bernoulli(1.0)

    def test_bernoulli_rate(self):
        rng = SplitMix(13)
        hits = sum(rng.bernoulli(0.3) for _ in range(20_000))
        assert abs(hits / 20_000 - 0.3) < 0.02

    def test_geometric_mean(self):
        rng = SplitMix(17)
        p = 0.25
        values = [rng.geometric(p) for _ in range(20_000)]
        expected = (1 - p) / p
        assert abs(sum(values) / len(values) - expected) < 0.15

    def test_geometric_invalid_p(self):
        rng = SplitMix(1)
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.geometric(1.5)

    def test_geometric_cap(self):
        rng = SplitMix(1)
        assert rng.geometric(1e-12, cap=10) <= 10

    def test_choice(self):
        rng = SplitMix(19)
        items = ["a", "b", "c"]
        for _ in range(50):
            assert rng.choice(items) in items

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SplitMix(1).choice([])

    def test_weighted_choice_respects_weights(self):
        rng = SplitMix(23)
        counts = {"x": 0, "y": 0}
        for _ in range(10_000):
            counts[rng.weighted_choice(["x", "y"], [9.0, 1.0])] += 1
        assert counts["x"] > 8 * counts["y"] * 0.8

    def test_weighted_choice_zero_weight_never_chosen(self):
        rng = SplitMix(29)
        for _ in range(1000):
            assert rng.weighted_choice(["a", "b"], [0.0, 1.0]) == "b"

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SplitMix(1).weighted_choice(["a"], [1.0, 2.0])

    def test_weighted_choice_nonpositive_total(self):
        with pytest.raises(ValueError):
            SplitMix(1).weighted_choice(["a"], [0.0])

    def test_shuffle_is_permutation(self):
        rng = SplitMix(31)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_split_independence(self):
        rng = SplitMix(37)
        a = rng.split("a")
        b = rng.split("b")
        assert a.next_u64() != b.next_u64()

    def test_split_deterministic(self):
        assert (
            SplitMix(41).split("x").next_u64()
            == SplitMix(41).split("x").next_u64()
        )

    @pytest.mark.parametrize("seed", [0, 43, (1 << 64) - 1, 0x9E3779B97F4A7C15])
    def test_array_draws_equal_scalar_draws(self, seed):
        # The state wraps mod 2**64 inside the block for the large seeds.
        block, scalar = SplitMix(seed), SplitMix(seed)
        raw = block.next_u64_array(300)
        assert raw.tolist() == [scalar.next_u64() for _ in range(300)]
        assert unit_floats(block.next_u64_array(50)).tolist() == [
            scalar.random() for _ in range(50)
        ]
        assert block.next_u64_array(0).tolist() == []
        assert block.next_u64() == scalar.next_u64()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_int_and_str_labels(self):
        assert derive_seed(1, 5) != derive_seed(1, "5x")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
