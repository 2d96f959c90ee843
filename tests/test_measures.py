import math

import numpy as np
import pytest

from oscbath import (
    DomainError,
    NonPhysicalInput,
    SymplecticData,
    check_physical,
    f_entropy,
    full_report,
    gaussian_discord,
    initial_squeezed_vacuum,
    invariants,
    log_negativity,
    purity,
    report_from_data,
)
from oscbath.measures import _FLOAT, _zeta_first, _zeta_second
from helpers import random_physical_cov, single_mode_rotations, swap_modes


def f_oracle(x):
    # independent evaluation of the bosonic entropy, natural log
    xp, xm = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return xp * math.log(xp) - xm * math.log(xm) if xm > 0 else 0.0


class TestInvariants:
    def test_vacuum(self):
        data = invariants(np.eye(4))
        assert (data.i1, data.i2, data.i3, data.i4) == (1.0, 1.0, 0.0, 1.0)
        assert data.nu_minus == data.nu_plus == 1.0
        assert data.nu_tilde_minus == 1.0

    def test_squeezed_vacuum_blocks(self):
        data = invariants(initial_squeezed_vacuum(1.0))
        ch2 = math.cosh(2.0) ** 2   # 14.154116418002431
        sh2 = math.sinh(2.0) ** 2
        assert data.i1 == pytest.approx(ch2, rel=1e-14)
        assert data.i2 == pytest.approx(ch2, rel=1e-14)
        assert data.i3 == pytest.approx(-sh2, rel=1e-14)
        assert data.i4 == pytest.approx(1.0, abs=1e-12)
        assert data.nu_minus == pytest.approx(1.0, abs=1e-10)
        assert data.nu_plus == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_partial_transpose_eigenvalue(self, r):
        data = invariants(initial_squeezed_vacuum(r))
        assert data.nu_tilde_minus == pytest.approx(math.exp(-2 * r), rel=1e-11)

    def test_delta_definitions(self):
        data = invariants(initial_squeezed_vacuum(0.7))
        assert data.delta == pytest.approx(data.i1 + data.i2 + 2 * data.i3, rel=1e-12)
        assert data.delta_tilde == pytest.approx(
            data.i1 + data.i2 - 2 * data.i3, rel=1e-12
        )

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NonPhysicalInput):
            invariants(np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_negative_discriminant_rejected(self):
        sigma = np.array([[4.0, 0.0, -2.0, -2.0], [0.0, -6.0, -1.0, -2.0],
                          [-2.0, -1.0, 2.0, 6.0], [-2.0, -2.0, 6.0, 4.0]])
        with pytest.raises(NonPhysicalInput,
                           match=r"^state discriminant negative beyond tolerance \(-16\)$"):
            invariants(sigma)

    def test_asymmetric_input_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            invariants(bad)

    def test_non_finite_input_rejected(self):
        bad = np.eye(4)
        bad[2, 2] = math.inf
        with pytest.raises(ValueError):
            invariants(bad)
        bad[2, 2] = math.nan
        with pytest.raises(ValueError):
            invariants(bad)


class TestPhysicalityAndPurity:
    def test_vacuum_physical(self):
        assert check_physical(invariants(np.eye(4)))

    def test_squeezed_vacuum_physical(self):
        assert check_physical(invariants(initial_squeezed_vacuum(1.0)))

    def test_sub_vacuum_not_physical(self):
        assert not check_physical(invariants(0.5 * np.eye(4)))

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_pure_state_purity(self, r):
        assert purity(invariants(initial_squeezed_vacuum(r))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_thermal_purity(self):
        # both modes at coth(2.5): purity = tanh(2.5)^2
        c = 1.0 / math.tanh(2.5)
        assert purity(invariants(c * np.eye(4))) == pytest.approx(
            0.9734077733168395, rel=1e-12
        )

    def test_doubled_vacuum_purity(self):
        assert purity(invariants(2.0 * np.eye(4))) == pytest.approx(0.25, rel=1e-12)

    def test_inconsistent_spectrum_rejected(self):
        # nu_plus * nu_minus = 1 but det sigma = 4: no state has this data
        data = SymplecticData(1.0, 1.0, 0.0, 4.0, 2.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(NonPhysicalInput):
            purity(data)


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert log_negativity(invariants(np.eye(4))) == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_squeezed_vacuum_value(self, r):
        en = log_negativity(invariants(initial_squeezed_vacuum(r)))
        assert en == pytest.approx(2.0 * r, abs=1e-9)

    def test_base_two(self):
        # nats / ln 2 is bits: -log2(nu_tilde_minus), nu_tilde_minus = e^-2r
        en = log_negativity(invariants(initial_squeezed_vacuum(1.0)))
        assert en / math.log(2.0) == pytest.approx(-math.log2(math.exp(-2.0)), rel=1e-12)

    def test_zero_at_separability_boundary(self):
        # scaled squeezed vacuum with nu_tilde_minus pinned at 1 +/- delta
        for delta in (1e-3, 1e-6, 1e-9):
            k = 2.0
            r_above = 0.5 * math.log(k / (1.0 + delta))
            en = log_negativity(invariants(k * initial_squeezed_vacuum(r_above)))
            assert en == 0.0
            r_below = 0.5 * math.log(k / (1.0 - delta))
            en = log_negativity(invariants(k * initial_squeezed_vacuum(r_below)))
            assert 0.0 < en < 2.0 * delta


class TestEntropyFunction:
    def test_limit_at_one(self):
        assert f_entropy(1.0) == 0.0
        assert f_entropy(1.0 - 1e-10) == 0.0  # clamp zone
        assert f_entropy(1.0 - 5e-9) == 0.0  # inside the physicality gate

    def test_below_domain_raises(self):
        with pytest.raises(DomainError):
            f_entropy(0.9)
        with pytest.raises(DomainError):
            f_entropy(1.0 - 2e-8)

    def test_frozen_values(self):
        assert f_entropy(3.7621956910836314) == pytest.approx(
            1.6198220928977025, rel=1e-12
        )
        assert f_entropy(1.0135673098126083) == pytest.approx(
            0.04067902398100953, rel=1e-12
        )

    def test_monotone(self):
        xs = np.linspace(1.0, 6.0, 200)
        vals = [f_entropy(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_base_two(self):
        # f(2) = 1.5 log2(1.5) - 0.5 log2(0.5) bits
        assert f_entropy(2.0) / math.log(2.0) == pytest.approx(
            1.5 * math.log2(1.5) + 0.5, rel=1e-12
        )


class TestGaussianDiscord:
    def test_product_state_zero(self):
        sigma = np.diag([2.0, 2.0, 1.5, 1.5])
        discord, branch = gaussian_discord(invariants(sigma))
        assert branch == "first"
        assert abs(discord) < 1e-9

    def test_vacuum_zero_via_reroute(self):
        discord, branch = gaussian_discord(invariants(np.eye(4)))
        assert discord == 0.0
        assert branch == "second"

    @pytest.mark.parametrize("r,tol", [(0.5, 1e-9), (1.0, 1e-9), (2.0, 1e-6)])
    def test_squeezed_vacuum_closed_form(self, r, tol):
        discord, _ = gaussian_discord(invariants(initial_squeezed_vacuum(r)))
        assert discord == pytest.approx(f_oracle(math.cosh(2 * r)), abs=tol)

    def test_branches_agree_at_pure_states(self):
        # the branch condition holds with equality on pure states
        for r in (0.3, 0.5, 1.0):
            data = invariants(initial_squeezed_vacuum(r))
            z1 = _zeta_first(_FLOAT, data.i1, data.i2, data.i3, data.i4)
            z2 = _zeta_second(_FLOAT, data.i1, data.i2, data.i3, data.i4)
            assert f_oracle(math.sqrt(z1)) == pytest.approx(
                f_oracle(math.sqrt(max(z2, 1.0))), abs=1e-5
            )

    def test_base_two(self):
        # the squeezed vacuum's discord is f(cosh 2r), here in bits
        discord, _ = gaussian_discord(invariants(initial_squeezed_vacuum(1.0)))
        x = math.cosh(2.0)
        plus, minus = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
        bits = plus * math.log2(plus) - minus * math.log2(minus)
        assert discord / math.log(2.0) == pytest.approx(bits, rel=1e-9)

    def test_mode_swap_symmetric_state(self):
        sigma = initial_squeezed_vacuum(1.0)
        d2, _ = gaussian_discord(invariants(sigma))
        d1, _ = gaussian_discord(invariants(swap_modes(sigma)))
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_mode_swap_runs_on_asymmetric_state(self):
        rng = np.random.default_rng(7)
        sigma = random_physical_cov(rng)
        for state in (swap_modes(sigma), sigma):
            d, branch = gaussian_discord(invariants(state))
            assert d >= 0.0 and math.isfinite(d)
            assert branch in ("first", "second")

    # Standard-form states (a, b, c+, c-) = [[a, 0, c+, 0], [0, a, 0, c-],
    # [c+, 0, b, 0], [0, c-, 0, b]] and the discord and branch with mode 1
    # measured, from the former gaussian_discord(data, measured_mode=1).
    # The third is a product with the vacuum in mode 1, singular on the
    # first branch and rerouted to the second.
    MODE_ONE_PINS = [
        ((1.5, 4.0, 1.25, -0.5), "0x1.d7c557ce676e0p-5", "second"),
        ((2.5, 1.75, 1.0, 0.75), "0x1.06f7dd13709dcp-3", "first"),
        ((1.0, 1.5, 0.0, 0.0), "0x0.0p+0", "second"),
        ((3.5, 2.5, 2.5, -2.5), "0x1.c520c212f126ep-2", "first"),
        ((1.2, 3.5, 0.9, -0.3), "0x1.1baaa0fa6bc10p-4", "second"),
    ]

    @pytest.mark.parametrize("form, discord, branch", MODE_ONE_PINS)
    def test_mode_one_through_swap_matches_pins(self, form, discord, branch):
        a, b, cp, cm = form
        sigma = np.array([[a, 0.0, cp, 0.0], [0.0, a, 0.0, cm],
                          [cp, 0.0, b, 0.0], [0.0, cm, 0.0, b]])
        data, swapped = invariants(sigma), invariants(swap_modes(sigma))
        assert (swapped.i1, swapped.i2) == (data.i2, data.i1)
        assert (swapped.i3, swapped.i4, swapped.nu_minus, swapped.nu_plus) == (
            data.i3, data.i4, data.nu_minus, data.nu_plus)
        got, got_branch = gaussian_discord(swapped)
        assert (got.hex(), got_branch) == (discord, branch)


class TestFullReport:
    def test_squeezed_vacuum_composite(self):
        rep = full_report(initial_squeezed_vacuum(1.0))
        assert rep.purity == pytest.approx(1.0, abs=1e-10)
        assert rep.log_negativity == pytest.approx(2.0, abs=1e-9)
        assert rep.discord == pytest.approx(1.6198220928977025, abs=1e-9)
        assert rep.physical

    def test_vacuum_composite(self):
        rep = full_report(np.eye(4))
        assert (rep.purity, rep.log_negativity, rep.discord) == (1.0, 0.0, 0.0)
        assert rep.physical

    def test_sub_vacuum_flagged_not_raised(self):
        rep = full_report(0.5 * np.eye(4))
        assert not rep.physical
        assert rep.purity == pytest.approx(4.0, rel=1e-12)
        assert rep.log_negativity == pytest.approx(math.log(2.0), rel=1e-9)
        assert math.isnan(rep.discord)
        assert rep.zeta_branch is None


class TestRandomStateProperties:
    def test_spectrum_identities(self):
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            data = invariants(random_physical_cov(rng))
            prod = data.nu_minus * data.nu_plus
            root = math.sqrt(data.i4)
            assert abs(prod - root) <= 1e-9 * root
            assert abs(purity(data) - 1.0 / root) <= 1e-9 / root
            assert data.nu_minus <= data.nu_plus
            assert data.nu_minus >= 1.0 - 1e-9

    def test_local_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            sigma = random_physical_cov(rng)
            rot = single_mode_rotations(rng.uniform(0, 2 * math.pi),
                                        rng.uniform(0, 2 * math.pi))
            rotated = rot @ sigma @ rot.T
            rotated = 0.5 * (rotated + rotated.T)
            a, b = invariants(sigma), invariants(rotated)
            for field in ("i1", "i2", "i3", "i4"):
                va, vb = getattr(a, field), getattr(b, field)
                assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))
            ra, rb = full_report(sigma), full_report(rotated)
            assert abs(ra.purity - rb.purity) <= 1e-9
            assert abs(ra.log_negativity - rb.log_negativity) <= 1e-9
            assert abs(ra.discord - rb.discord) <= 1e-9

    def test_discord_nonnegative(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            rep = full_report(random_physical_cov(rng))
            assert rep.discord >= 0.0
