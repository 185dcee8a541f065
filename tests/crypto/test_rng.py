"""Hardware RNG model: determinism, ranges, and rough uniformity."""

import pytest

from repro.crypto.rng import DrawBuffer, HardwareRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HardwareRng(42)
        b = HardwareRng(42)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_different_streams(self):
        a = HardwareRng(1)
        b = HardwareRng(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


class TestRanges:
    def test_u64_in_range(self):
        rng = HardwareRng()
        for _ in range(100):
            value = rng.next_u64()
            assert 0 <= value < (1 << 64)

    @pytest.mark.parametrize("bits", [1, 8, 17, 32, 63, 64])
    def test_next_bits_bound(self, bits):
        rng = HardwareRng(7)
        for _ in range(50):
            assert 0 <= rng.next_bits(bits) < (1 << bits)

    @pytest.mark.parametrize("bits", [0, 65, -1])
    def test_next_bits_validates(self, bits):
        with pytest.raises(ValueError):
            HardwareRng().next_bits(bits)

    @pytest.mark.parametrize("bound", [1, 2, 3, 10, 1000, 1 << 40])
    def test_next_below_bound(self, bound):
        rng = HardwareRng(9)
        for _ in range(30):
            assert 0 <= rng.next_below(bound) < bound

    def test_next_below_one_is_always_zero(self):
        rng = HardwareRng()
        assert all(rng.next_below(1) == 0 for _ in range(10))

    @pytest.mark.parametrize("bound", [0, -5])
    def test_next_below_validates(self, bound):
        with pytest.raises(ValueError):
            HardwareRng().next_below(bound)

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 33])
    def test_next_bytes_length(self, count):
        assert len(HardwareRng().next_bytes(count)) == count

    def test_next_float_in_unit_interval(self):
        rng = HardwareRng(3)
        values = [rng.next_float() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)


class TestDistribution:
    def test_float_mean_near_half(self):
        rng = HardwareRng(11)
        values = [rng.next_float() for _ in range(5000)]
        mean = sum(values) / len(values)
        assert 0.47 < mean < 0.53

    def test_next_below_covers_all_values(self):
        rng = HardwareRng(13)
        seen = {rng.next_below(8) for _ in range(500)}
        assert seen == set(range(8))

    def test_bit_balance(self):
        rng = HardwareRng(17)
        ones = sum(bin(rng.next_u64()).count("1") for _ in range(500))
        total = 500 * 64
        assert 0.48 < ones / total < 0.52


class TestBulkDraws:
    @pytest.mark.parametrize("count", [0, 1, 5, 1000])
    def test_bulk_equals_successive_calls_and_state(self, count):
        bulk, scalar = HardwareRng(0xBEEF), HardwareRng(0xBEEF)
        assert bulk.next_u64s(count) == [scalar.next_u64() for _ in range(count)]
        assert bulk._s == scalar._s
        assert bulk.next_u64() == scalar.next_u64()

    # A block is 2048 values: these end before, on and after its boundary.
    @pytest.mark.parametrize("draws", [0, 1, 7, 2047, 2048, 2049, 4097])
    def test_buffer_settles_rng_on_exactly_the_draws_used(self, draws):
        buffered, scalar = HardwareRng(5), HardwareRng(5)
        buffer = DrawBuffer(buffered)
        values = [buffer.draw() for _ in range(draws)]
        buffer.close()
        assert values == [scalar.next_u64() for _ in range(draws)]
        assert buffered._s == scalar._s
        assert buffered.next_u64() == scalar.next_u64()
