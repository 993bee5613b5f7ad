import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cmgiant import (
    Pmf,
    build_offspring_spec,
    component_decomposition,
    pair_half_edges,
    sample_iid_degrees,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# --hypothesis-profile=deep runs the oracle tests ten times longer
settings.register_profile(
    "deep",
    deadline=None,
    max_examples=500,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


MIXTURE = {1: 0.5, 3: 0.5}


@pytest.fixture(scope="session")
def mixture_pmf():
    return Pmf.from_dict(MIXTURE)


@pytest.fixture(scope="session")
def mixture_spec(mixture_pmf):
    return build_offspring_spec(mixture_pmf)


@pytest.fixture(scope="session")
def mixture_graph(mixture_pmf):
    """One supercritical graph at n=20000, shared by the statistics tests."""
    rng = np.random.default_rng(20240707)
    seq = sample_iid_degrees(mixture_pmf, 20000, rng)
    g = pair_half_edges(seq, rng)
    return seq, g


@pytest.fixture(scope="session")
def mixture_components(mixture_graph):
    _, g = mixture_graph
    return component_decomposition(g)
