"""Checkpoint serialization: exact roundtrip and size accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.parameters import Parameters
from repro.nn.serialization import (
    checkpoint_nbytes,
    params_from_bytes,
    params_to_bytes,
)


def test_roundtrip_basic(rng):
    p = Parameters(
        {"embed": rng.normal(size=(10, 4)), "b": rng.normal(size=3),
         "scalarish": np.array(2.5)}
    )
    blob = params_to_bytes(p)
    assert params_from_bytes(blob).allclose(p, atol=0)


@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(spec, seed):
    rng = np.random.default_rng(seed)
    p = Parameters({name: rng.normal(size=size) for name, size in spec})
    recovered = params_from_bytes(params_to_bytes(p))
    assert recovered.shapes() == p.shapes()
    assert recovered.allclose(p, atol=0)


def test_nbytes_matches_actual_serialized_size(rng):
    p = Parameters({"w": rng.normal(size=(17, 3)), "bias_vector": rng.normal(size=9)})
    assert checkpoint_nbytes(p) == len(params_to_bytes(p))


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="magic"):
        params_from_bytes(b"NOPE" + b"\x00" * 32)


def test_preserves_name_order(rng):
    p = Parameters({"z": np.zeros(1), "a": np.ones(1), "m": np.full(1, 2.0)})
    recovered = params_from_bytes(params_to_bytes(p))
    assert list(recovered) == ["z", "a", "m"]


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda blob: blob + b"junk", "trailing"),
        (lambda blob: blob[:8], "truncated"),          # inside the header
        (lambda blob: blob[:20], "truncated"),         # inside an array's header
        (lambda blob: blob[:-3], "truncated"),         # inside the last array
        (lambda blob: blob[:4], "truncated"),          # the magic alone
    ],
)
def test_a_cut_or_padded_checkpoint_is_refused(rng, cut, message):
    """Only a whole checkpoint decodes: one cut short anywhere, or with
    bytes after its last array, is refused with a ``ValueError`` saying
    which."""
    blob = params_to_bytes(Parameters({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}))
    with pytest.raises(ValueError, match=message):
        params_from_bytes(cut(blob))


def test_decoded_arrays_are_one_flat_vector(rng):
    """The decode copies every array into one flat-backed vector, in the
    blob's order, so whole-model arithmetic on it is one vector op."""
    p = Parameters({"w": rng.normal(size=(3, 2)), "s": np.array(1.5), "b": rng.normal(size=4)})
    recovered = params_from_bytes(params_to_bytes(p))
    assert recovered.flat_base is not None
    np.testing.assert_array_equal(recovered.flat_base, p.to_vector())
    assert {k: v.shape for k, v in recovered.items()} == {k: v.shape for k, v in p.items()}
