"""Argument validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    check_int_array,
    check_positive,
    check_probability,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 5) == 5

    def test_accepts_numpy_integer(self):
        assert check_positive("x", np.int64(5)) == 5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("x", 0, strict=False) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1, strict=False)

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", 1.5)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_rejects_bool(self, value):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            check_positive("x", value, strict=False)


class TestCheckProbability:
    def test_accepts_one(self):
        assert check_probability("p", 1.0) == 1.0

    def test_accepts_small(self):
        assert check_probability("p", 0.01) == 0.01

    def test_rejects_zero_by_default(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", 0.0)

    def test_allows_zero_when_asked(self):
        assert check_probability("p", 0.0, allow_zero=True) == 0.0

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.01)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", "half")

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5"])
    def test_rejects_bool_and_text(self, value):
        with pytest.raises(ConfigurationError, match="must be a float"):
            check_probability("p", value, allow_zero=True)

    def test_accepts_numpy_scalars(self):
        assert check_probability("p", np.float32(0.5)) == 0.5
        assert check_probability("p", np.int64(1)) == 1.0


class TestCheckIntArray:
    def test_passes_int_array(self):
        out = check_int_array("a", np.array([1, 2, 3]))
        assert out.dtype.kind == "i"

    def test_converts_integral_floats(self):
        out = check_int_array("a", np.array([1.0, 2.0]))
        assert out.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(ConfigurationError):
            check_int_array("a", np.array([1.5]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ConfigurationError):
            check_int_array("a", np.zeros((2, 2)))

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="must contain integers"):
            check_int_array("a", np.array([True, False]))

    def test_rank_override(self):
        out = check_int_array("a", np.zeros((2, 2), dtype=np.int64), ndim=2)
        assert out.shape == (2, 2)
