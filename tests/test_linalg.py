import numpy as np
import pytest

from spectrum_oracle import closed_spectrum
from xxzent import linalg
from xxzent.cli import main
from xxzent.linalg import (
    SPIN_FLIP,
    NonHermitianError,
    NoConvergenceError,
    hermitian_eigen,
    hermiticity_defect,
    singular_values,
)
from xxzent.model import build_hamiltonian
from xxzent.thermal import gibbs_closed, wootters_concurrence


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

    def test_tiny_coupling_beside_an_active_plane(self):
        # a coupling far below its gap beside a coupled plane: full relative accuracy
        # and no warning
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        a[0, 1] = a[1, 0] = 1e-310
        a[2, 3] = a[3, 2] = 1.0
        values = hermitian_eigen(a).values
        expected = np.linalg.eigvalsh(a)
        assert np.max(np.abs(values - expected) / np.abs(expected)) <= 1e-15

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

    # The Hermiticity defect counts against each matrix's largest |entry|, not against 1.
    def test_refuses_relative_defect_at_tiny_scale(self):
        m = random_hermitian(np.random.default_rng(115)).real * 1e-200
        m[0, 1] *= 1 + 1e-5
        with pytest.raises(NonHermitianError, match="times its largest"):
            hermitian_eigen(m)

    def test_accepts_one_ulp_defect_at_huge_scale(self):
        m = random_hermitian(np.random.default_rng(115)).real
        huge = np.ldexp(m, 700)
        huge[0, 1] = np.nextafter(huge[0, 1], np.inf)
        assert hermiticity_defect(huge) > 1e-12
        values = hermitian_eigen(huge).values
        assert np.allclose(np.ldexp(values, -700), np.linalg.eigvalsh(m), rtol=0, atol=1e-12)

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
            singular_values(np.zeros((5, 3, 3)))

    @pytest.mark.parametrize("function", [hermitian_eigen, singular_values])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_names_non_finite_matrix_in_stack(self, function, entry):
        m = np.stack([np.eye(4) / 4] * 100)
        m[37, 1, 2] = m[37, 2, 1] = entry
        with pytest.raises(ValueError, match="^matrix 37 has a non-finite entry"):
            function(m)
        with pytest.raises(ValueError, match=r"^matrix \(3, 7\) has a non-finite entry"):
            function(m.reshape(10, 10, 4, 4))
        with pytest.raises(ValueError, match="^matrix has a non-finite entry"):
            function(m[37].astype(complex))

    @pytest.mark.parametrize("function", [hermitian_eigen, singular_values])
    def test_each_call_finds_the_largest_entries_once(self, function, monkeypatch):
        # the finiteness, Hermiticity and scaling rules share the one reduction
        largest, calls = linalg._largest, []
        monkeypatch.setattr(linalg, "_largest", lambda m: calls.append(1) or largest(m))
        function(np.stack([np.eye(4) / 4] * 3))
        assert len(calls) == 1

    def test_lapack_failure_is_no_convergence(self, monkeypatch, capsys):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NoConvergenceError, match="eigh failed") as raised:
            hermitian_eigen(np.eye(4))
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)
        assert main(["verify", "--samples", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_mixed_stack_matches_single_matrices_to_the_sign_bit(self):
        # X-shaped, dense and diagonal matrices with -0.0 entries: a matrix's neighbours
        # in a stack must leave its bits alone
        rng = np.random.default_rng(119)
        x_shaped = build_hamiltonian(*rng.uniform(-3, 3, (4, 20)))
        x_shaped[:, 0, 1] = x_shaped[:, 1, 0] = -0.0
        x_shaped[::4, 1, 2] = x_shaped[::4, 2, 1] = -0.0  # diagonal with signed zeros
        diagonal = np.diag([-0.0, 1.0, -2.0, 0.0])
        dense = np.stack([random_hermitian(rng) for _ in range(20)])
        for m in (np.concatenate([x_shaped, dense.real, [diagonal]]),
                  np.concatenate([x_shaped, dense, [diagonal]])):
            stack = hermitian_eigen(m)
            for i in range(len(m)):
                single = hermitian_eigen(m[i])
                for ours, theirs in zip(single, (stack.values[i], stack.vectors[i])):
                    assert np.array_equal(ours, theirs)
                    for part in ("real", "imag"):
                        signs = (np.signbit(getattr(x, part)) for x in (ours, theirs))
                        assert np.array_equal(*signs)

    @pytest.mark.parametrize("exponent", [-600, -60, 60, 600])
    def test_stopping_test_is_scale_free(self, exponent):
        rng = np.random.default_rng(114)
        h = build_hamiltonian(*rng.uniform(-3, 3, (4, 50)))
        values, vectors = hermitian_eigen(h)
        scaled = hermitian_eigen(np.ldexp(h, exponent))
        assert np.array_equal(scaled.values, np.ldexp(values, exponent))
        assert np.array_equal(scaled.vectors, vectors)

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


class TestDtype:
    """Real input runs and returns real; complex input stays complex."""

    @staticmethod
    def real_stacks():
        rng = np.random.default_rng(115)
        a = rng.normal(size=(300, 4, 4))
        return {
            "symmetric": a + a.swapaxes(-1, -2),
            "general": a,
            "gibbs": gibbs_closed(*rng.uniform(0.05, 3, (5, 300))),
        }

    @staticmethod
    def results(stacks):
        values, vectors = hermitian_eigen(stacks["symmetric"])
        concurrence, roots = wootters_concurrence(stacks["gibbs"])
        return {
            "values": values, "vectors": vectors,
            "singular": singular_values(stacks["general"]),
            "concurrence": concurrence, "roots": roots,
        }

    def test_real_in_real_out(self):
        for name, result in self.results(self.real_stacks()).items():
            assert result.dtype == np.float64, name

    def test_complex_stays_complex(self):
        stacks = {name: m.astype(complex) for name, m in self.real_stacks().items()}
        result = self.results(stacks)
        assert result["vectors"].dtype == np.complex128

    def test_real_matches_complex(self):
        stacks = self.real_stacks()
        real = self.results(stacks)
        cast = self.results({name: m.astype(complex) for name, m in stacks.items()})
        # eigenvectors agree up to a sign or phase per column
        overlap = np.abs(np.sum(real.pop("vectors") * cast.pop("vectors").conj(), axis=-2))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-14
        for name in real:
            assert np.max(np.abs(real[name] - cast[name])) <= 1e-14, name


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


class TestScaleCovariance:
    """Results at 2**k times a matrix are 2**k times its results, over the double range."""

    EXPONENTS = [-1000, -800, -500, -260, -250, -240, -1, 1, 240, 250, 260, 500, 800, 1000]

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_hermitian_eigen(self, k):
        rng = np.random.default_rng(116)
        m = np.stack([random_hermitian(rng) for _ in range(50)])
        for stack in (m, m.real):
            values, vectors = hermitian_eigen(stack)
            scaled = hermitian_eigen(stack * 2.0**k)  # exact: every entry stays normal
            assert np.array_equal(scaled.values, values * 2.0**k)
            assert np.array_equal(scaled.vectors, vectors)

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_singular_values(self, k):
        rng = np.random.default_rng(117)
        a = rng.uniform(-2, 2, (50, 4, 4))
        for stack in (a, a + 1j * rng.uniform(-2, 2, (50, 4, 4))):
            assert np.array_equal(singular_values(stack * 2.0**k), singular_values(stack) * 2.0**k)

    def test_singular_values_past_the_square_root_of_the_range(self):
        # squared entries of 1e200 overflow unless the matrix is scaled down first
        sigma = singular_values(np.diag([1e200, 1e200, 1.0, 1.0]))
        assert np.array_equal(sigma, [1e200, 1e200, 1.0, 1.0])

    def test_singular_values_of_tiny_entries(self):
        # squared entries of 1e-200 underflow to zero unless the matrix is scaled up first
        a = np.random.default_rng(118).normal(size=(4, 4))
        sigma = singular_values(a * 1e-200)
        assert np.allclose(sigma, singular_values(a) * 1e-200, rtol=1e-14, atol=0)

    def test_hermitian_eigen_near_the_largest_double(self):
        # symmetrizing (m + adj(m)) / 2 overflows unless the matrix is scaled down first
        m = np.zeros((4, 4))
        m[0, 0], m[1, 1], m[0, 1], m[1, 0] = 1e308, -1e308, 1e307, 1e307
        values = hermitian_eigen(m).values
        assert np.array_equal(values, 4.0 * hermitian_eigen(m / 4.0).values)
        expected = [-1.00498756211e308, 0.0, 0.0, 1.00498756211e308]
        assert np.allclose(values, expected, rtol=1e-11, atol=0)

    def test_eigenvalue_past_the_double_range(self):
        # 4e308 comes back as +-inf with no overflow warning (a warning fails a test)
        m = np.full((4, 4), 1e308)
        assert hermitian_eigen(m).values[-1] == np.inf
        assert hermitian_eigen(-m).values[0] == -np.inf
