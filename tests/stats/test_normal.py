"""Standard-normal quantiles."""

import pytest

from repro.stats.normal import normal_quantile, two_sided_z


class TestQuantiles:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_975_is_196(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_symmetry(self):
        assert normal_quantile(0.1) == pytest.approx(
            -normal_quantile(0.9), abs=1e-12
        )

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_two_sided(self):
        assert two_sided_z(0.95) == pytest.approx(1.959964, abs=1e-5)
        with pytest.raises(ValueError):
            two_sided_z(1.0)

