import numpy as np
import pytest

from bubblescreen import (KFunction, PointSource, RawMaterials, SourcePulse,
                          build_rule, build_surface, derive_params,
                          partition, place_bubbles)


@pytest.fixture(scope="session")
def params():
    """Default nondimensional materials at eps = 1/64 (unit reference ball)."""
    return derive_params(RawMaterials(eps=1.0 / 64.0))


@pytest.fixture(scope="session")
def disk():
    return build_surface("disk", 1.0)


@pytest.fixture(scope="session")
def sphere():
    return build_surface("sphere", 1.0)


@pytest.fixture(scope="session")
def disk_scene(params, disk):
    """Small disk configuration shared by solver tests: d = 1/8, K == 0."""
    pw = partition(disk, 0.125)
    k = KFunction.constant(0.0)
    cluster = place_bubbles(pw, k, eps=1.0 / 64.0, seed=0)
    rule = build_rule(pw, k)
    pulse = SourcePulse(omega0=1.0 / params.omega_m, t_rise=1.5)
    source = PointSource(np.array([0.0, 0.0, 1.5]), pulse, rho_c=1.0, c0=params.c0)
    return {"patchwork": pw, "cluster": cluster, "rule": rule,
            "pulse": pulse, "source": source}
