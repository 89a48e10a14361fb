import numpy as np
import pytest

from xxzent.linalg import (
    SPIN_FLIP,
    NonHermitianError,
    NoConvergenceError,
    NotPSDError,
    hermitian_eigen,
    hermiticity_defect,
    psd_sqrt,
    singular_values,
)
from xxzent.model import build_hamiltonian, closed_spectrum
from xxzent.thermal import gibbs_closed


def random_hermitian(rng):
    a = rng.uniform(-3, 3, (4, 4)) + 1j * rng.uniform(-3, 3, (4, 4))
    return (a + a.conj().T) / 2


class TestHermitianEigen:
    def test_identity(self):
        values, vectors = hermitian_eigen(np.eye(4, dtype=complex))
        assert np.allclose(values, np.ones(4), atol=0)
        assert np.allclose(vectors.conj().T @ vectors, np.eye(4), atol=1e-12)

    def test_already_diagonal(self):
        values, vectors = hermitian_eigen(np.diag([-2.0, -1.0, 0.0, 3.0]))
        assert np.array_equal(values, [-2.0, -1.0, 0.0, 3.0])
        assert np.allclose(np.abs(vectors), np.eye(4), atol=0)

    def test_model_hamiltonian_energies(self):
        # eta = 1 at b = 0, so the closed energies are (0.2, 0.2, -1.2, 0.8)
        h = build_hamiltonian(1.0, 0.4, 0.0, 0.0)
        values, _ = hermitian_eigen(h)
        assert np.allclose(values, [-1.2, 0.2, 0.2, 0.8], atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NonHermitianError):
            hermitian_eigen(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.eye(3))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(101)
        m = np.stack([random_hermitian(rng) for _ in range(10_000)])
        values, vectors = hermitian_eigen(m)
        rec = (vectors * values[:, np.newaxis, :]) @ vectors.conj().swapaxes(-1, -2)
        gram = vectors.conj().swapaxes(-1, -2) @ vectors - np.eye(4)
        assert np.all(np.diff(values, axis=-1) >= 0)
        assert np.max(np.abs(rec - m)) <= 1e-10
        assert np.max(np.abs(gram)) <= 1e-10

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(108)
        m = np.stack([random_hermitian(rng) for _ in range(200)])
        values, vectors = hermitian_eigen(m)
        for i in range(len(m)):
            single = hermitian_eigen(m[i])
            assert single.values.shape == (4,) and single.vectors.shape == (4, 4)
            assert np.array_equal(single.values, values[i])
            assert np.array_equal(single.vectors, vectors[i])

    def test_leading_shape_kept(self):
        rng = np.random.default_rng(109)
        m = np.stack([random_hermitian(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        values, vectors = hermitian_eigen(m)
        assert values.shape == (2, 3, 4) and vectors.shape == (2, 3, 4, 4)
        assert np.array_equal(values[1, 2], hermitian_eigen(m[1, 2]).values)
        assert hermitian_eigen(m[:0]).values.shape == (0, 3, 4)

    def test_names_non_hermitian_matrix_in_stack(self):
        rng = np.random.default_rng(110)
        m = np.stack([random_hermitian(rng) for _ in range(100)])
        m[37, 0, 1] += 1e-3
        with pytest.raises(NonHermitianError, match="matrix 37 "):
            hermitian_eigen(m)
        with pytest.raises(NonHermitianError, match=r"matrix \(3, 7\) "):
            hermitian_eigen(m.reshape(10, 10, 4, 4))

    def test_rejects_wrong_stack_shape(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.zeros((5, 3, 3)))
        with pytest.raises(ValueError):
            psd_sqrt(np.zeros((5, 3, 3)))
        with pytest.raises(ValueError):
            singular_values(np.zeros((5, 3, 3)))

    def test_no_convergence_names_matrix(self, monkeypatch):
        import xxzent.linalg as linalg

        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        rng = np.random.default_rng(111)
        m = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), random_hermitian(rng)])
        with pytest.raises(NoConvergenceError, match="matrix 1,"):
            hermitian_eigen(m)

    def test_matches_closed_spectrum(self):
        # module-boundary oracle contract (full 10^4 version in acceptance)
        rng = np.random.default_rng(102)
        for _ in range(2000):
            params = (
                rng.choice([-1, 1]) * rng.uniform(0.05, 3),
                rng.uniform(-3, 3), rng.uniform(0, 3), rng.uniform(-3, 3),
            )
            numeric = hermitian_eigen(build_hamiltonian(*params)).values
            closed = np.sort(closed_spectrum(*params).energies)
            assert np.max(np.abs(numeric - closed)) <= 1e-10


class TestPsdSqrt:
    def test_scalar_matrix(self):
        root = psd_sqrt(np.eye(4) / 4)
        assert np.allclose(root, np.eye(4) / 2, atol=1e-14)

    def test_diagonal(self):
        root = psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]))
        assert np.allclose(root, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_gibbs_square(self):
        rho = gibbs_closed(1.0, 0.0, 0.0, 0.0, 1.0)
        root = psd_sqrt(rho)
        assert np.max(np.abs(root @ root - rho)) <= 1e-10
        assert hermiticity_defect(root) <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_random_psd(self):
        rng = np.random.default_rng(103)
        rhos = []
        for _ in range(2000):
            a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            rho = a @ a.conj().T
            rhos.append(rho / np.trace(rho).real)
        rho = np.stack(rhos)
        root = psd_sqrt(rho)
        assert np.max(np.abs(root @ root - rho)) <= 1e-10

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(112)
        a = rng.uniform(-1, 1, (200, 4, 4)) + 1j * rng.uniform(-1, 1, (200, 4, 4))
        rho = a @ a.conj().swapaxes(-1, -2)
        root = psd_sqrt(rho)
        for i in range(len(rho)):
            assert np.array_equal(psd_sqrt(rho[i]), root[i])

    def test_names_indefinite_matrix_in_stack(self):
        rho = np.stack([np.eye(4) / 4] * 10)
        rho[6] = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(NotPSDError, match="matrix 6 "):
            psd_sqrt(rho)


class TestElementaryOps:
    def test_spin_flip_involution(self):
        assert np.array_equal(SPIN_FLIP @ SPIN_FLIP, np.eye(4, dtype=complex))

    def test_hermiticity_defect_per_matrix(self):
        m = np.stack([np.eye(4, dtype=complex)] * 3)
        m[1, 2, 0] = 0.5
        assert np.array_equal(hermiticity_defect(m), [0.0, 0.5, 0.0])
        assert hermiticity_defect(m[1]) == 0.5

    def test_spin_flip_entries(self):
        assert np.array_equal(SPIN_FLIP.imag, np.zeros((4, 4)))
        assert np.array_equal(SPIN_FLIP, SPIN_FLIP.T)
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = -1
        expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(SPIN_FLIP.real, expected)


class TestSingularValues:
    def test_diagonal(self):
        sigma = singular_values(np.diag([3.0, -1.0, 0.5, 0.0]))
        assert np.allclose(sigma, [3.0, 1.0, 0.5, 0.0], atol=1e-14)

    def test_matches_gram_spectrum(self):
        rng = np.random.default_rng(106)
        a = np.stack(
            [rng.uniform(-2, 2, (4, 4)) + 1j * rng.uniform(-2, 2, (4, 4)) for _ in range(500)]
        )
        sigma = singular_values(a)
        gram_eigs = hermitian_eigen(a @ a.conj().swapaxes(-1, -2)).values
        assert np.allclose(
            np.sort(sigma ** 2, axis=-1), np.clip(gram_eigs, 0, None), atol=1e-10
        )

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(113)
        a = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
        a[::7, :, 3] = 0.0  # rank-deficient members
        sigma = singular_values(a)
        assert np.all(np.diff(sigma, axis=-1) <= 0)
        for i in range(len(a)):
            assert np.array_equal(singular_values(a[i]), sigma[i])

    def test_rank_deficient(self):
        rng = np.random.default_rng(107)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        sigma = singular_values(np.outer(u, v))
        assert sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.all(sigma[1:] <= 1e-12)
