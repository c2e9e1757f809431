"""Hypothesis strategies shared by the oracle tests."""
from hypothesis import strategies as st

from conftest import mutate


@st.composite
def corruptions(draw, ring):
    """Overwrite a few f- and g-entries; the table stays total, and an
    f-entry may become empty."""
    element = st.integers(0, ring.size - 1)
    f_keys = st.tuples(*[element] * ring.m)
    g_keys = st.tuples(*[element] * ring.n)
    f_over = draw(st.dictionaries(f_keys, st.frozensets(element), max_size=4))
    g_over = draw(st.dictionaries(g_keys, element, max_size=4))
    return mutate(ring, f"{ring.name}-corrupt", f_over, g_over)
