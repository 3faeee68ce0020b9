import pytest
from hypothesis import strategies as st

from predprey import ModelParams, State


@pytest.fixture
def params():
    """The parameter set used throughout the narrative runs."""
    return ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)


@pytest.fixture
def s0():
    return State(0.2, 0.3)


@st.composite
def valid_params(draw):
    """Parameters with 0 < alpha < beta < p*capacity < 1."""
    capacity = draw(st.floats(0.05, 20.0))
    pc = draw(st.floats(1e-3, 0.999))
    beta = pc * draw(st.floats(0.01, 0.99))
    alpha = beta * draw(st.floats(0.01, 0.99))
    p = pc / capacity
    try:
        return ModelParams(alpha, beta, p, capacity)
    except ValueError:      # rounding broke a strict inequality
        return draw(st.nothing())
