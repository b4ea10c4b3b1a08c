import numpy as np
import pytest

from photonloc import UnitsConfig


@pytest.mark.parametrize("name", ["hbar", "c", "eps0"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -2.0])
def test_constants_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        UnitsConfig(**{name: value})

