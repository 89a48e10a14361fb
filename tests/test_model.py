import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spectrum_oracle import closed_spectrum, pure_concurrence
from xxzent.linalg import hermitian_eigen
from xxzent.model import (
    InvalidParameterError,
    Phase,
    ZeroXYCouplingError,
    _check_params,
    _energies,
    build_hamiltonian,
    ground_state,
)


def random_params(rng, j_min=0.05):
    """(J, Jz, B, b) as floats."""
    return tuple(float(x) for x in (
        rng.choice([-1.0, 1.0]) * rng.uniform(j_min, 3),
        rng.uniform(-3, 3),
        rng.uniform(0, 3),
        rng.uniform(-3, 3),
    ))


class TestParameterDomain:
    def test_rejects_negative_uniform_field(self):
        with pytest.raises(InvalidParameterError):
            _check_params(J=1.0, Jz=0.0, B=-0.5, b=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            _check_params(J=math.inf, Jz=0.0, B=0.0, b=0.0)
        with pytest.raises(InvalidParameterError):
            _check_params(J=1.0, Jz=math.nan, B=0.0, b=0.0)

    def test_zero_coupling_accepted(self):
        # the spectral route accepts J = 0; only closed forms reject it
        _check_params(J=0.0, Jz=1.0, B=0.0, b=0.0)
        with pytest.raises(ZeroXYCouplingError):
            _check_params("closed-form spectrum", J=0.0, Jz=1.0, B=0.0, b=0.0)


class TestBuildHamiltonian:
    def test_zero_field_structure(self):
        h = build_hamiltonian(1.0, 0.0, 0.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(h, expected)

    def test_entries(self):
        h = build_hamiltonian(1.0, 0.4, 0.5, 0.2)
        assert np.allclose(h.diagonal().real, [0.7, 0.0, -0.4, -0.3], atol=1e-15)
        assert h[1, 2] == h[2, 1] == 1.0
        structural = h - np.diag(h.diagonal())
        structural[1, 2] = structural[2, 1] = 0.0
        assert np.count_nonzero(structural) == 0

    def test_traceless(self):
        rng = np.random.default_rng(201)
        for _ in range(1000):
            h = build_hamiltonian(*random_params(rng, j_min=0.0))
            assert abs(np.trace(h)) <= 1e-14


class TestClosedSpectrum:
    def test_zero_field_energies_and_singlet(self):
        spec = closed_spectrum(1.0, 0.4, 0.0, 0.0)
        assert np.allclose(spec.energies, [0.2, 0.2, -1.2, 0.8], atol=1e-15)
        singlet = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2)
        assert np.allclose(spec.states[:, 2], singlet, atol=1e-15)

    def test_field_split(self):
        spec = closed_spectrum(1.0, 0.0, 2.0, 0.0)
        assert np.allclose(spec.energies, [-2.0, 2.0, -1.0, 1.0], atol=1e-15)

    def test_energies_even_in_coupling(self):
        rng = np.random.default_rng(202)
        for _ in range(500):
            J, Jz, B, b = random_params(rng)
            assert np.array_equal(
                closed_spectrum(J, Jz, B, b).energies, closed_spectrum(-J, Jz, B, b).energies
            )

    def test_rejects_zero_coupling(self):
        with pytest.raises(ZeroXYCouplingError):
            closed_spectrum(0.0, 1.0, 0.0, 0.0)

    def test_eigenpairs_and_scalars(self):
        rng = np.random.default_rng(203)
        for _ in range(500):
            J, Jz, B, b = random_params(rng)
            spec = closed_spectrum(J, Jz, B, b)
            h = build_hamiltonian(J, Jz, B, b)
            for k, energy in enumerate(spec.energies):
                state = spec.states[:, k]
                assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
                assert np.max(np.abs(h @ state - energy * state)) <= 1e-10
            assert spec.xi * spec.zeta == pytest.approx(-J**2, abs=1e-12)
            assert spec.zeta - spec.xi == pytest.approx(2 * spec.eta, abs=1e-12)
            assert spec.e1 + spec.e2 == pytest.approx(Jz, abs=1e-12)
            assert spec.e3 + spec.e4 == pytest.approx(-Jz, abs=1e-12)
            assert spec.e3 <= spec.e4


class TestGroundState:
    def test_maximally_entangled_point(self):
        report = ground_state(1.0, 0.0, 0.0, 0.0)
        assert report.phase is Phase.ENTANGLED
        assert report.ground_energy == pytest.approx(-1.0, abs=1e-15)
        assert report.ground_concurrence == 1.0

    def test_strong_field_disentangles(self):
        report = ground_state(1.0, 0.0, 3.0, 0.0)
        assert report.phase is Phase.DISENTANGLED
        assert report.ground_energy == pytest.approx(-3.0, abs=1e-15)
        assert report.ground_concurrence == 0.0

    def test_thresholds(self):
        report = ground_state(1.0, 0.4, 0.0, 0.0)
        assert report.threshold_B == pytest.approx(1.4, abs=1e-15)
        assert report.threshold_Jz == pytest.approx(-1.0, abs=1e-15)

    def test_uniform_threshold_does_not_cancel(self):
        # eta rounds to 1.0 = -Jz here; B^f = Jz + eta = b^2 / (eta - Jz) is 5e-17
        report = ground_state(1.0, -1.0, 0.0, 1e-8)
        assert report.threshold_B == pytest.approx(5e-17, rel=1e-15, abs=0.0)

    def test_boundary_reported_indeterminate(self):
        report = ground_state(1.0, 0.4, 1.4, 0.0)  # B exactly at eta + Jz
        assert report.phase is Phase.BOUNDARY
        assert math.isnan(report.ground_concurrence)

    def test_level_crossing_at_threshold(self):
        rng = np.random.default_rng(204)
        for _ in range(500):
            J, Jz, B, b = random_params(rng)
            spec = closed_spectrum(J, Jz, B, b)
            # the threshold field may be negative, which _energies accepts
            (e1, _, e3, _), _ = _energies(J, Jz, spec.eta + Jz, b)
            assert abs(e1 - e3) <= 1e-12

    def test_concurrence_even_in_b(self):
        rng = np.random.default_rng(205)
        for _ in range(500):
            J, Jz, B, b = random_params(rng)
            report, mirrored = ground_state(J, Jz, B, b), ground_state(J, Jz, B, -b)
            if report.phase is Phase.BOUNDARY:
                continue
            assert abs(report.ground_concurrence - mirrored.ground_concurrence) <= 1e-12

    def test_concurrence_independent_of_jz(self):
        # any Jz keeping the system entangled gives the same concurrence
        rng = np.random.default_rng(206)
        for _ in range(200):
            j = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3)
            b = rng.uniform(-3, 3)
            eta = math.hypot(b, j)
            reference = None
            for jz in np.linspace(0.1 - eta, 3.0, 7):
                report = ground_state(j, jz, 0.0, b)
                assert report.phase is Phase.ENTANGLED
                if reference is None:
                    reference = report.ground_concurrence
                assert report.ground_concurrence == reference


class TestPureConcurrence:
    def test_product_state(self):
        assert pure_concurrence([0.0, 0.0, 0.0, 1.0]) == 0.0

    def test_bell_state(self):
        s = 1 / math.sqrt(2)
        assert pure_concurrence([0.0, -s, s, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_inner_eigenstate(self):
        # lambda = 0.5 - sqrt(1.25): concurrence 2|l|/(1+l^2) = 0.894427190999916
        spec = closed_spectrum(1.0, 0.0, 0.0, 0.5)
        assert pure_concurrence(spec.states[:, 2]) == pytest.approx(0.894427190999916, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence([0.0, 0.0, 1.0, 1.0])

    def test_matches_closed_form_on_inner_states(self):
        rng = np.random.default_rng(207)
        for _ in range(10_000):
            spec = closed_spectrum(*random_params(rng))
            lam = spec.lam
            expected = 2 * abs(lam) / (1 + lam * lam)
            assert pure_concurrence(spec.states[:, 2]) == pytest.approx(expected, abs=1e-12)


class TestXXXGroundConcurrence:
    # The isotropic Jz = J pair of the fig2 preset, run through ground_state
    # at doubled parameters (J, Jz, B, b) -> (2J, 2Jz, 2B, 2b): its ground
    # concurrence is 1/sqrt(1 + (b/J)^2).
    def test_homogeneous_limit(self):
        assert ground_state(2.0, 2.0, 0.0, 0.0).ground_concurrence == 1.0

    def test_reference_inhomogeneity(self):
        report = ground_state(-2.0, -2.0, 0.0, 0.916)
        assert report.ground_concurrence == pytest.approx(0.9091795772080864, abs=1e-12)


def test_ground_concurrence_relative_accuracy_at_large_field_ratio():
    # Reference 2|lam|/(1 + lam^2), lam = (b - eta)/J, in 40-digit decimals,
    # where the cancellation in b - eta costs nothing.
    for J in (0.05, -0.05):
        for ratio in (1.0, 60.0, 600.0, 6000.0, 6e4):
            for b in (ratio * abs(J), -ratio * abs(J)):
                report = ground_state(J, 0.0, 0.0, b)
                with localcontext() as ctx:
                    ctx.prec = 40
                    dj, db = Decimal(J), Decimal(b)
                    lam = (db - (db * db + dj * dj).sqrt()) / dj
                    expected = 2 * abs(lam) / (1 + lam * lam)
                    error = abs(Decimal(report.ground_concurrence) - expected) / expected
                assert error <= Decimal("4e-16"), (J, b, error)


def test_ground_concurrence_matches_lapack_ground_vector():
    # independent route: concurrence of the numerically computed ground state
    rng = np.random.default_rng(209)
    checked = 0
    while checked < 200:
        J, Jz, B, b = (
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3)),
            float(rng.uniform(-3, 3)), float(rng.uniform(0, 3)), float(rng.uniform(-3, 3)),
        )
        report = ground_state(J, Jz, B, b)
        spec = closed_spectrum(J, Jz, B, b)
        gap = abs(spec.eta - (B - Jz))
        others = np.sort(spec.energies)
        if report.phase is Phase.BOUNDARY or gap < 1e-3 or others[1] - others[0] < 1e-3:
            continue
        values, vectors = hermitian_eigen(build_hamiltonian(J, Jz, B, b))
        numeric = pure_concurrence(vectors[:, 0])
        assert numeric == pytest.approx(report.ground_concurrence, abs=1e-9)
        checked += 1
