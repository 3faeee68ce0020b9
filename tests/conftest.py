import math
import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from predprey import ModelParams, SchemeConfig, State, iterate

# the benchmark corpus's failing draw (bench/workloads.py, Corpus.DEFECT):
# solved alone at h = 0.25 to t = 100 it diverges at step 388
DEFECT_SIGMA = 0.9995984281287198
DEFECT_PARAMS = ModelParams(0.056855987345937775, 0.46495492358440327,
                            0.693078530037033, 1.0)
DEFECT_INITIAL = State(0.21802292303380175, 0.27565498163756413)

# E_{0.95}(-1), 40-digit series evaluation rounded to double
ML_095_AT_M1 = 0.37157362003067881


# multiplies every hypothesis test's max_examples; the default 1 runs each
# as its @settings says, and e.g. 20 searches twenty times as long
EXAMPLES_SCALE = float(os.environ.get("PREDPREY_EXAMPLES_SCALE", "1"))


def pytest_collection_modifyitems(items):
    if EXAMPLES_SCALE == 1.0:
        return
    if not 0.0 < EXAMPLES_SCALE < math.inf:
        raise pytest.UsageError("PREDPREY_EXAMPLES_SCALE must be a positive "
                                f"number, got {EXAMPLES_SCALE}")
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        # @given reads the test's settings from this attribute at each call;
        # a parametrized test's items share one function, scaled once
        old = getattr(test, "_hypothesis_internal_use_settings", None)
        if old is None or test in scaled:
            continue
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            old, max_examples=max(1, round(old.max_examples * EXAMPLES_SCALE)))


@pytest.fixture
def params():
    """The parameter set used throughout the narrative runs."""
    return ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)


@pytest.fixture
def s0():
    return State(0.2, 0.3)


def one_step(scheme, params, h, s):
    """State 1 of ``scheme`` from ``s``: a one-step :func:`iterate`."""
    return iterate(params, SchemeConfig(h=h, t_end=h, scheme=scheme), s).final


@st.composite
def valid_params(draw, capacity=st.floats(0.05, 20.0)):
    """Parameters with 0 < alpha < beta < p*capacity < 1."""
    capacity = draw(capacity)
    pc = draw(st.floats(1e-3, 0.999))
    beta = pc * draw(st.floats(0.01, 0.99))
    alpha = beta * draw(st.floats(0.01, 0.99))
    p = pc / capacity
    try:
        return ModelParams(alpha, beta, p, capacity)
    except ValueError:      # rounding broke a strict inequality
        return draw(st.nothing())
