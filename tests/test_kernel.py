import random
import types

import pytest

from latmin import _kernel_py, kernel


def random_system(rng):
    r = rng.randint(1, 4)
    m = rng.randint(1, 5)
    g = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    t = [rng.randint(0, 40) for _ in range(m)]
    lo = [rng.randint(-4, 0) for _ in range(r)]
    hi = [rng.randint(0, 4) for _ in range(r)]
    return g, t, lo, hi


class TestPurePython:
    def test_zero_skipped(self):
        g, t = [[1]], [10]
        assert _kernel_py.collect_passing(g, t, [-2], [2]) == [(-2,), (-1,), (1,), (2,)]

    def test_constraint_filtering(self):
        g, t = [[1, 0], [0, 1]], [1, 0]
        got = _kernel_py.collect_passing(g, t, [-2, -2], [2, 2])
        assert got == [(-1, 0), (1, 0)]

    def test_empty_box(self):
        assert _kernel_py.count_passing([[1]], [5], [3], [1]) == 0
        assert _kernel_py.count_passing([], [], [], []) == 0

    def test_odometer_order(self):
        got = _kernel_py.collect_passing([[1, 1]], [99], [-1, -1], [1, 1])
        assert got == [
            (-1, -1), (0, -1), (1, -1),
            (-1, 0), (1, 0),
            (-1, 1), (0, 1), (1, 1),
        ]


@pytest.mark.skipif(not kernel.compiled_available(), reason="extension not built")
class TestCompiledTwin:
    def test_agreement_random(self):
        rng = random.Random(99)
        from latmin import _kernel

        for _ in range(300):
            g, t, lo, hi = random_system(rng)
            expected = _kernel_py.collect_passing(g, t, lo, hi)
            assert _kernel.collect_passing(g, t, lo, hi) == expected
            assert _kernel.count_passing(g, t, lo, hi) == len(expected)


class TestDispatch:
    """Backend choice, with a stand-in module in place of the extension."""

    @pytest.fixture
    def compiled_calls(self, monkeypatch):
        calls = []
        stand_in = types.ModuleType("stand_in_kernel")

        def count_passing(g, t, lo, hi):
            calls.append("count")
            return _kernel_py.count_passing(g, t, lo, hi)

        def collect_passing(g, t, lo, hi):
            calls.append("collect")
            return _kernel_py.collect_passing(g, t, lo, hi)

        stand_in.count_passing = count_passing
        stand_in.collect_passing = collect_passing
        monkeypatch.setattr(kernel, "_compiled", stand_in)
        return calls

    def test_dispatch_uses_compiled_when_safe(self, compiled_calls):
        assert kernel.backend_name() == "compiled"
        assert kernel.backend_name([[1]], [5], [-3], [3]) == "compiled"
        assert kernel.count_passing([[1]], [5], [-3], [3]) == 6
        assert kernel.collect_passing([[1]], [1], [-2], [2]) == [(-1,), (1,)]
        assert compiled_calls == ["count", "collect"]

    def test_dispatch_falls_back_on_overflow_risk(self, compiled_calls):
        big = 1 << 70
        g, t, lo, hi = [[big]], [big], [-2], [2]
        assert kernel.backend_name(g, t, lo, hi) == "pure-python"
        assert kernel.count_passing(g, t, lo, hi) == 2  # only z = +-1 pass
        assert compiled_calls == []


class TestBoxSize:
    def test_sizes(self):
        assert kernel.box_size([-2, -1], [2, 1]) == 15
        assert kernel.box_size([0], [-1]) == 0
        assert kernel.box_size([], []) == 1

    def test_fits_int64(self):
        assert kernel.fits_int64([[1]], [5], [-3], [3])
        assert not kernel.fits_int64([[1 << 70]], [5], [-3], [3])
        assert not kernel.fits_int64([[1]], [1 << 70], [-3], [3])
