"""g17.Fields gives the bytes of CPython's '%.17g' for every double.

Its integer path takes 1e-11 < |x| < 1e16; every other value falls back to
'%.17g' itself.  The hypothesis cases are derandomized with a fixed budget,
and tools/check_float_format.py checks millions more outside the suite.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco1d import g17


def formatted(values) -> list[bytes]:
    v = np.asarray(values, dtype=np.float64)
    return g17.Fields(v.size)(v).view(f"S{g17.WIDTH}").ravel().tolist()


def reference(values) -> list[bytes]:
    return [("%.17g" % x).encode() for x in values]


def _steps(x: float, ulps: int) -> list[float]:
    """x and the doubles up to ulps steps away on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


_FIXED = [
    0.0, 5e-324, 1e-45, math.nan, math.inf,
    1e-11, math.nextafter(1e-11, math.inf),  # the domain's ends: the first falls back
    math.nextafter(1e16, 0.0), 1e16,
    2.0**-25, 2.0**51, 2.0**53, 9999999999999998.0, 0.5, 100.0, 123456.0,
    *(y for j in range(-20, 18) for y in _steps(float(f"1e{j}"), 2)),
]


def test_fixed_cases_of_both_signs():
    values = _FIXED + [-x for x in _FIXED]
    assert formatted(values) == reference(values)


def test_no_double_of_the_domain_rounds_up_to_ten_to_the_17th():
    """Why the kernel has no carry: below each power of ten 10**-10..10**16
    the nearest double is more than half a unit of the 17th digit away."""
    for j in range(-10, 17):
        power = Fraction(10) ** j
        below = float(power) if Fraction(float(power)) < power else math.nextafter(
            float(power), 0.0)
        assert (power - Fraction(below)) / power > Fraction(5, 10**18)


def test_a_tie_rounds_half_to_even():
    # 2**-25 = 2.98023223876953125e-08 exactly: the 17th digit ties.
    assert formatted([2.0**-25]) == [b"2.9802322387695312e-08"]


_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
_BATCH = dict(min_size=1, max_size=64)


@_SETTINGS
@given(st.lists(st.floats(), **_BATCH))
def test_every_double(values):
    assert formatted(values) == reference(values)


@_SETTINGS
@given(st.lists(st.builds(math.copysign, st.floats(1e-11, 1e16, exclude_max=True),
                          st.sampled_from([1.0, -1.0])), **_BATCH))
def test_the_integer_domain(values):
    assert formatted(values) == reference(values)


def test_fields_take_the_count_they_were_made_for():
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        g17.Fields(3)(np.ones(2))


def test_the_checker_script_finds_no_mismatch(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_float_format.py"
    spec = importlib.util.spec_from_file_location("check_float_format", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["600", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "checked 600 values, 0 mismatches"
