import math
from dataclasses import replace

import numpy as np
import pytest

from specint.errors import DomainError, HypothesisError
from specint.politics import equilibrium_from_groups
from specint.production import productive_optimum
from specint.reforms import broadening_family, interface_family
from specint.welfare import (
    DECOMPOSITION_STEP,
    decompose_along,
    dispersion,
    service_welfare,
    total_welfare,
)


def test_dispersion_direct_arithmetic():
    # log B_soc - [(1-m) log B_S + m log B_M] at B_soc = 0.25
    got = dispersion(0.2, 0.4, 0.25)
    want = math.log(0.25) - (0.75 * math.log(0.2) + 0.25 * math.log(0.4))
    assert got == pytest.approx(want, abs=1e-15)


def test_dispersion_zero_iff_equal():
    assert dispersion(0.37, 0.37, 0.4) == 0.0
    assert dispersion(0.2, 0.21, 0.4) > 0.0


def test_dispersion_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        B_S = float(rng.uniform(0.05, 0.8))
        B_M = float(rng.uniform(0.05, 0.8))
        m = float(rng.uniform(0.05, 0.95))
        k = float(rng.uniform(0.5, 1.2))
        assert dispersion(k * B_S, k * B_M, m) == pytest.approx(
            dispersion(B_S, B_M, m), abs=1e-12
        )


def test_service_welfare_representation(econ):
    rng = np.random.default_rng(7)
    for i in range(400):
        m = float(rng.uniform(0.02, 0.98))
        B_S = float(rng.uniform(0.02, 0.9))
        B_M = B_S if i % 5 == 0 else float(rng.uniform(0.02, 0.9))
        out = equilibrium_from_groups(econ, Y=float(rng.uniform(1, 30)), m=m, B_S=B_S, B_M=B_M)
        v = service_welfare(out)
        d = dispersion(B_S, B_M, m)
        assert abs(v - (math.log(out.R) - d)) <= 1e-10
        assert d >= 0.0
        if B_S == B_M:
            assert v == pytest.approx(math.log(out.R), abs=1e-12)


def test_service_welfare_log_shift(econ):
    out = equilibrium_from_groups(econ, Y=10.0, m=0.3, B_S=0.3, B_M=0.5)
    scaled = type(out)(
        e_pol=out.e_pol, z_pol=out.z_pol, t_S=2.0 * out.t_S, t_M=2.0 * out.t_M,
        R=2.0 * out.R, B_S=out.B_S, B_M=out.B_M, B_soc=out.B_soc, m=out.m, Y=out.Y,
    )
    assert service_welfare(scaled) == pytest.approx(
        service_welfare(out) + math.log(2.0), abs=1e-12
    )


def test_service_welfare_rejects_zero_service(econ):
    out = equilibrium_from_groups(econ, Y=10.0, m=0.3, B_S=0.3, B_M=0.5)
    broken = type(out)(
        e_pol=out.e_pol, z_pol=out.z_pol, t_S=0.0, t_M=out.t_M,
        R=out.R, B_S=out.B_S, B_M=out.B_M, B_soc=out.B_soc, m=out.m, Y=out.Y,
    )
    with pytest.raises(DomainError, match="log service utility needs positive services"):
        service_welfare(broken)


def test_total_welfare_composition(econ):
    _, alloc = productive_optimum(econ)
    rep = total_welfare(econ, alloc)
    assert rep.welfare == pytest.approx(
        (1 - econ.tau) * rep.Y + rep.service_welfare, abs=1e-12
    )
    assert rep.dispersion > 0.0  # integrator advantage holds here
    assert list(rep.columns()) == [
        "Y", "service_welfare", "dispersion", "welfare", "e_pol", "z_pol",
        "t_S", "t_M", "R", "B_S", "B_M", "B_soc", "m",
    ]


def test_one_tax_rate_drives_income_wedge_and_resources(econ):
    # gov.tau is both the income wedge (1-tau)*Y and the scale of R
    _, alloc = productive_optimum(econ)
    base = total_welfare(econ, alloc)
    shifted_econ = replace(econ, gov=replace(econ.gov, tau=0.5))
    assert shifted_econ.tau == 0.5
    shifted = total_welfare(shifted_econ, alloc)
    assert shifted.R == pytest.approx(base.R * 0.5 / 0.3, rel=1e-12)
    assert shifted.service_welfare - base.service_welfare == pytest.approx(
        math.log(0.5 / 0.3), abs=1e-12
    )
    assert shifted.welfare - base.welfare == pytest.approx(
        (0.3 - 0.5) * base.Y + math.log(0.5 / 0.3), abs=1e-10
    )


def test_total_welfare_degenerate_group_raises(econ):
    from specint.reforms import broadening_allocation

    fully_broad = broadening_allocation(1.0, econ)  # integrator mass zero
    with pytest.raises(HypothesisError, match="voting game needs both groups populated"):
        total_welfare(econ, fully_broad)


def test_decompose_constant_family_is_zero(econ):
    _, alloc = productive_optimum(econ)
    d = decompose_along(econ, lambda b: total_welfare(econ, alloc), 0.4)
    assert abs(d.productive_term) <= 1e-12
    assert abs(d.governance_term) <= 1e-12
    assert abs(d.targeting_term) <= 1e-12
    assert abs(d.fd_total) <= 1e-12


def test_decompose_residual_small_on_both_families(econ):
    bfam = broadening_family(econ)
    for b in (0.0, 0.25, 0.6, 1.0 - 1e-3):
        assert decompose_along(econ, bfam, b).residual <= 1e-4
    ifam = interface_family(econ)
    for a in (0.0, 0.5, 1.0):
        assert decompose_along(econ, ifam, a).residual <= 1e-4


def test_decompose_boundary_uses_one_sided(econ):
    bfam = broadening_family(econ)
    d0 = decompose_along(econ, bfam, 0.0)
    d_in = decompose_along(econ, bfam, 1e-5)
    assert d0.fd_total == pytest.approx(d_in.fd_total, rel=1e-3, abs=1e-4)


@pytest.mark.parametrize(
    "b, offsets", [(0.4, (-1, 0, 1)), (0.0, (0, 1, 2)), (1.0, (0, -1, -2))]
)
def test_decompose_returns_the_report_at_its_parameter(econ, b, offsets):
    # central inside (0, 1), one-sided at either end: every stencil holds
    # b itself, and the report there has the bits of a direct evaluation
    fam = interface_family(econ)
    points = []

    def recorded(a):
        points.append(a)
        return fam(a)

    d = decompose_along(econ, recorded, b)
    assert points == [b + k * DECOMPOSITION_STEP for k in offsets]
    assert np.array(d.at).tobytes() == np.array(fam(b)).tobytes()
