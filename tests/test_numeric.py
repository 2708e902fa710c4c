"""The stacked binary-form root finder against its one-form reference,
and the rendering of floats for a report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvcam.errors import DegenerateInput
from gvcam.numeric import FORM_EPS, binary_roots, format_scalar
from conftest import reference_binary_roots

# no coefficient near the subnormal range, even times FORM_EPS: numpy.roots
# overflows on a form whose largest coefficient is subnormal (see
# test_subnormal_form_has_its_roots)
_COEFF = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-6)


@st.composite
def _forms(draw):
    """A stack of forms of one degree: rows with a few leading
    coefficients within FORM_EPS, trailing exact zeros, complex
    coefficients, or all zero."""
    d = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = np.array(draw(st.lists(_COEFF, min_size=d + 1,
                                     max_size=d + 1)), dtype=complex)
        if draw(st.booleans()):
            row = row + 1j * np.array(draw(st.lists(
                _COEFF, min_size=d + 1, max_size=d + 1)))
        how = draw(st.sampled_from(["plain", "small", "trailing", "both",
                                    "zero"]))
        if how in ("small", "both"):
            row[:draw(st.integers(1, d))] *= FORM_EPS / 10
        if how in ("trailing", "both"):
            row[d + 1 - draw(st.integers(1, d)):] = 0
        if how == "zero":
            row[:] = 0
        rows.append(row)
    return np.array(rows)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_forms())
def test_stacked_roots_equal_the_reference_row_by_row(forms):
    """Each row's roots equal numpy.roots of the form, bit for bit, with
    (1 : 0) for the leading coefficients within FORM_EPS, and equal the
    finder called on that row alone; a zero row finds no root."""
    s, t, found = binary_roots(forms)
    assert s.shape == t.shape == found.shape == (len(forms),
                                                 forms.shape[1] - 1)
    for i, form in enumerate(forms):
        one = binary_roots(form)
        for stacked, single in zip((s[i], t[i], found[i]), one):
            assert stacked.tobytes() == single.tobytes()
        if not form.any():
            assert not found[i].any()
            with pytest.raises(DegenerateInput):
                reference_binary_roots(form)
            continue
        assert found[i].all()
        roots = np.array(reference_binary_roots(form)).reshape(-1, 2)
        assert roots[:, 0].tobytes() == s[i].tobytes()
        assert roots[:, 1].tobytes() == t[i].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_form_is_refused(bad):
    with pytest.raises(DegenerateInput, match="non-finite"):
        binary_roots(np.array([[1.0, 2.0, 1.0], [1.0, bad, 0.0]]))


def test_subnormal_form_has_its_roots():
    """A form below the normal float range is scaled exactly first."""
    s, t, found = binary_roots(np.array([[1e-320, -2e-320, 0.0],
                                         [0.0, 5e-324, 5e-324]]))
    assert found.all()
    np.testing.assert_array_equal(s, [[2, 0], [1, -1]])
    np.testing.assert_array_equal(t, [[1, 1], [0, 1]])


def test_format_scalar_of_a_float_is_the_float():
    """17 significant digits round-trip every float64, so a float renders
    as itself: random bit patterns (NaNs among them), subnormals, the
    signed zeros and infinities, given as float and as np.float64."""
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64)
    subnormal = bits[:500] & np.uint64(0x800FFFFFFFFFFFFF)
    floats = np.finfo(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                         -5e-324, floats.tiny, floats.max, -floats.max])
    values = np.concatenate([bits.view(np.float64),
                             subnormal.view(np.float64), specials])
    assert np.isnan(values).sum() >= 2 and (values == 0).sum() >= 2
    for x in values:
        for given in (x, float(x)):
            got = format_scalar(given)
            assert type(got) is float
            if math.isnan(x):
                assert math.isnan(got)
            else:
                assert np.float64(got).tobytes() == x.tobytes()
                assert got == float(format(x, ".17g"))
