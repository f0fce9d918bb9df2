import numpy as np
import pytest

import curvkit as ck
from curvkit.quadric import _symmetric_unitary_root


def pair_quadric(n, pairs, diag=()):
    f = np.zeros((n, n), dtype=complex)
    for i, k in pairs:
        f[i - 1, k - 1] += 0.5
        f[k - 1, i - 1] += 0.5
    for i in diag:
        f[i - 1, i - 1] += 1.0
    return ck.QuadraticForm(f)


class TestRankAndKernel:
    def test_hyperbolic_plane(self):
        r, kernel = ck.rank_and_kernel(pair_quadric(2, [(1, 2)]))
        assert r == 2 and kernel.dim == 0

    def test_single_square(self):
        r, kernel = ck.rank_and_kernel(pair_quadric(3, [], diag=(3,)))
        assert r == 1 and kernel.dim == 2
        assert kernel.contains([1.0, 0.0, 0.0]) and kernel.contains([0.0, 1.0, 0.0])

    def test_two_hyperbolic_pairs_in_c5(self):
        r, kernel = ck.rank_and_kernel(pair_quadric(5, [(1, 4), (2, 5)]))
        assert r == 4 and kernel.dim == 1
        assert kernel.contains([0.0, 0.0, 1.0, 0.0, 0.0])


class TestNullspace:
    @pytest.mark.parametrize("rows, cols, rank", [(40, 6, 4), (7, 7, 5), (3, 8, 3), (6, 6, 6)])
    def test_matches_full_svd_reference(self, rows, cols, rank):
        # tall inputs take the thin SVD, wide ones the full one; both must
        # agree with the full-SVD null space in dimension
        rng = ck.Rng(rows * 100 + cols)
        a = rng.complex_normal((rows, rank)) @ rng.complex_normal((rank, cols))
        kernel = ck.nullspace(a)
        _, s, vh = np.linalg.svd(a)
        expected = vh[int(np.sum(s > 1e-9 * s[0])) :].conj().T
        assert kernel.shape == expected.shape == (cols, cols - rank)
        np.testing.assert_allclose(
            kernel.conj().T @ kernel, np.eye(cols - rank), atol=1e-12
        )
        assert np.linalg.norm(a @ kernel) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("rank", [1, 5, 8, 11])
    def test_curvature_kernel_rank_deficient_theta(self, rank):
        # a theta model's curvature kernel contains the kernel of its Hessian
        # and has its dimension, so n_R equals the Hessian rank
        f = ck.random_symmetric_with_rank(12, rank, ck.Rng(5, stream=rank))
        kernel = ck.curvature_kernel(ck.graph_curvature([f.matrix], -1))
        assert 12 - kernel.dim == rank
        hess_kernel = ck.nullspace(f.matrix)
        assert all(kernel.contains(hess_kernel[:, j]) for j in range(12 - rank))


class TestTakagi:
    def test_identity(self):
        w, s = ck.takagi(ck.QuadraticForm(np.eye(2)))
        np.testing.assert_allclose(s, [1.0, 1.0])
        np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        _, s = ck.takagi(ck.QuadraticForm(np.diag([2.0, 0.0])))
        np.testing.assert_allclose(s, [2.0, 0.0])

    def test_factorization_residual(self):
        for trial in range(30):
            rng = ck.Rng(41, stream=trial)
            n = 2 + trial % 5
            q = ck.QuadraticForm(rng.symmetric(n))
            w, s = ck.takagi(q)
            resid = np.linalg.norm(w @ np.diag(s) @ w.T - q.matrix)
            assert resid <= 1e-9 * q.norm()
            assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-9

    @staticmethod
    def assert_takagi(q):
        w, s = ck.takagi(q)
        assert np.linalg.norm(w @ np.diag(s) @ w.T - q.matrix) <= 1e-9 * max(q.norm(), 1.0)
        assert np.linalg.norm(w.conj().T @ w - np.eye(q.n)) <= 1e-9
        sub = ck.max_isotropic(q)
        assert ck.vanishes_on(q, sub)
        return s

    @pytest.mark.parametrize("n, big_n", [(6, 1), (7, 2), (9, 2), (12, 4)])
    def test_sharp_family_repeated_values(self, n, big_n):
        # the pair blocks share one singular value 1/2; a unitary chart makes
        # the phase block of that group a dense symmetric unitary matrix
        quadrics, _, _ = ck.sharp_family(n, big_n)
        u = ck.Rng(n, stream=big_n).unitary(n)
        for q in quadrics:
            if not q.is_zero():
                self.assert_takagi(q)
                self.assert_takagi(ck.QuadraticForm(u.T @ q.matrix @ u))

    def test_identity_blocks_and_zero_block(self):
        u = ck.Rng(53).unitary(7)
        s = np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.0, 0.0])
        got = self.assert_takagi(ck.QuadraticForm(u.T @ np.diag(s) @ u))
        np.testing.assert_allclose(got, s, atol=1e-12)
        self.assert_takagi(ck.QuadraticForm(np.eye(5)))
        assert np.array_equal(self.assert_takagi(ck.QuadraticForm.zero(3)), np.zeros(3))

    def test_singular_values_1e10_apart(self):
        u = ck.Rng(59).unitary(4)
        s = np.array([2.0, 1.0 + 1e-10, 1.0, 0.5])
        self.assert_takagi(ck.QuadraticForm(u.T @ np.diag(s) @ u))

    def test_root_of_nearly_conjugate_eigenvalues(self):
        # eigenvalues e^{+-i t} with cos t 1e-8..1e-6 apart: their real parts
        # nearly coincide while the values are far apart
        o = np.linalg.qr(ck.Rng(61).uniform(16).reshape(4, 4))[0]
        for gap in (1e-8, 3e-8, 1e-7, 1e-6):
            x = np.array([0.3, 0.3 + gap, -0.7, 0.9])
            lam = x + 1j * np.sqrt(1.0 - x**2) * np.array([1.0, -1.0, 1.0, -1.0])
            z = o @ np.diag(lam) @ o.T
            root = _symmetric_unitary_root(z)
            assert np.linalg.norm(root - root.T) <= 1e-13
            assert np.linalg.norm(root @ root - z) <= 1e-13


class TestIsotropicBound:
    def test_values(self):
        assert ck.isotropic_bound(4, 4) == 2
        assert ck.isotropic_bound(5, 4) == 3
        assert ck.isotropic_bound(3, 0) == 3

    def test_range_checked(self):
        with pytest.raises(ck.InputError):
            ck.isotropic_bound(3, 4)
        with pytest.raises(ck.InputError):
            ck.isotropic_bound(3, -1)


class TestMaxIsotropic:
    def test_plane_through_sum_of_squares(self):
        sub = ck.max_isotropic(ck.QuadraticForm(np.eye(2)))
        assert sub.dim == 1
        v = sub.basis[:, 0]
        assert abs(v @ v) <= 1e-12  # isotropic line, spanned by (1, +-i)/sqrt(2)

    def test_kernel_only_for_rank_one(self):
        sub = ck.max_isotropic(pair_quadric(3, [], diag=(1,)))
        assert sub.dim == 2
        assert sub.contains([0.0, 1.0, 0.0]) and sub.contains([0.0, 0.0, 1.0])

    def test_full_rank_dimension_and_residual(self):
        rng = ck.Rng(43)
        q = ck.random_symmetric_with_rank(5, 5, rng)
        sub = ck.max_isotropic(q)
        assert sub.dim == 2
        assert ck.vanishes_on(q, sub, tol=1e-9)

    def test_bound_attained_across_ranks(self):
        for trial in range(100):
            rng = ck.Rng(47, stream=trial)
            n = 2 + trial % 7
            r = int(rng.uniform(1)[0] * (n + 1))
            q = ck.random_symmetric_with_rank(n, r, rng)
            sub = ck.max_isotropic(q)
            assert sub.dim == ck.isotropic_bound(n, r)
            assert ck.vanishes_on(q, sub, tol=1e-9)


class TestVanishesOn:
    def test_coordinate_line_inside_hyperbolic(self):
        q = pair_quadric(2, [(1, 2)])
        line = ck.Subspace(np.eye(2, dtype=complex)[:, :1])
        assert ck.vanishes_on(q, line)

    def test_square_does_not_vanish(self):
        q = pair_quadric(2, [], diag=(1,))
        line = ck.Subspace(np.eye(2, dtype=complex)[:, :1])
        assert not ck.vanishes_on(q, line)

    def test_sharp_family_member(self):
        q = pair_quadric(4, [(1, 3), (2, 4)])
        shared = ck.Subspace(np.eye(4, dtype=complex)[:, :2])
        assert ck.vanishes_on(q, shared, tol=1e-10)


class TestIntersect:
    def test_two_planes_in_c3(self):
        rng = ck.Rng(53)
        subs = [ck.Subspace(rng.orthonormal(3, 2)) for _ in range(2)]
        assert ck.intersect(subs).dim >= 1

    def test_idempotent(self):
        rng = ck.Rng(59)
        sub = ck.Subspace(rng.orthonormal(4, 2))
        both = ck.intersect([sub, sub])
        assert both.dim == 2
        for col in range(2):
            assert both.contains(sub.basis[:, col])

    def test_three_subspaces_bound(self):
        rng = ck.Rng(61)
        subs = [ck.Subspace(rng.orthonormal(5, 4)) for _ in range(3)]
        meet = ck.intersect(subs)
        assert meet.dim >= 12 - 2 * 5
        # cross-check against the direct stacked null space
        proj = np.vstack([np.eye(5) - s.basis @ s.basis.conj().T for s in subs])
        assert meet.dim == ck.nullspace(proj).shape[1]

    def test_bound_sharp_on_coordinate_hyperplanes(self):
        planes = []
        for axis in range(3):
            basis = np.delete(np.eye(4, dtype=complex), axis, axis=1)
            planes.append(ck.Subspace(basis))
        assert ck.intersect(planes).dim == 4 - 3  # equality in the bound

    def test_random_inequality(self):
        for trial in range(60):
            rng = ck.Rng(67, stream=trial)
            n = 3 + trial % 5
            count = 2 + trial % 3
            dims = [1 + int(rng.uniform(1)[0] * n) for _ in range(count)]
            subs = [ck.Subspace(rng.orthonormal(n, d)) for d in dims]
            assert ck.intersect(subs).dim >= sum(dims) - (count - 1) * n


class TestCommonKernel:
    def test_single_rank_one(self):
        kernel = ck.common_kernel([pair_quadric(3, [], diag=(3,))])
        assert kernel.dim == 2

    def test_hyperbolic_trivial(self):
        assert ck.common_kernel([pair_quadric(2, [(1, 2)])]).dim == 0

    def test_two_pairs_trivial(self):
        assert ck.common_kernel([pair_quadric(4, [(1, 3), (2, 4)])]).dim == 0


class TestSharpFamily:
    def test_smallest(self):
        quads, shared, meta = ck.sharp_family(2, 1)
        assert len(quads) == 1 and shared.dim == 1 and meta["eta"] == 1
        np.testing.assert_allclose(quads[0].matrix, [[0.0, 0.5], [0.5, 0.0]])

    def test_n4(self):
        quads, shared, _ = ck.sharp_family(4, 1)
        assert shared.dim == 2
        np.testing.assert_allclose(quads[0].matrix, pair_quadric(4, [(1, 3), (2, 4)]).matrix)

    def test_n5_two_blocks(self):
        quads, shared, meta = ck.sharp_family(5, 2)
        assert shared.dim == 3 and len(quads) == 2
        np.testing.assert_allclose(quads[0].matrix, pair_quadric(5, [(1, 4), (2, 5)]).matrix)
        np.testing.assert_allclose(quads[1].matrix, pair_quadric(5, [(3, 4)]).matrix)
        assert ck.common_kernel(quads).dim == 0

    def test_odd_single_block_completed(self):
        quads, shared, meta = ck.sharp_family(5, 1)
        assert meta["completed_indices"] == [5]
        assert ck.common_kernel(quads).dim == 0
        assert ck.vanishes_on(quads[0], shared, tol=1e-12)

    def test_all_sizes(self):
        for n in range(2, 11):
            for big_n in range(1, 5):
                if (big_n * n) // (big_n + 1) < 1:
                    continue
                quads, shared, meta = ck.sharp_family(n, big_n)
                assert len(quads) == big_n
                assert shared.dim == meta["eta"]
                for q in quads:
                    assert ck.vanishes_on(q, shared, tol=1e-10)
                active = [q for q in quads if not q.is_zero(1e-12)]
                assert ck.common_kernel(active).dim == 0

    def test_degenerate_rejected(self):
        with pytest.raises(ck.InputError):
            ck.sharp_family(2, 0)
        with pytest.raises(ck.InputError):
            ck.sharp_family(1, 1)


class TestRandomQuadricsOn:
    def test_full_space_forces_zero(self):
        quads = ck.random_quadrics_on(ck.Subspace.full(3), 2, seed=0)
        assert all(q.norm() <= 1e-12 for q in quads)

    def test_trivial_space_unconstrained(self):
        quads = ck.random_quadrics_on(ck.Subspace.trivial(3), 2, seed=0)
        assert all(q.norm() > 0.1 for q in quads)

    def test_vanishing_and_determinism(self):
        rng = ck.Rng(71)
        sub = ck.Subspace(rng.orthonormal(5, 3))
        first = ck.random_quadrics_on(sub, 3, seed=9)
        again = ck.random_quadrics_on(sub, 3, seed=9)
        other = ck.random_quadrics_on(sub, 3, seed=10)
        for a, b in zip(first, again):
            assert np.array_equal(a.matrix, b.matrix)  # bitwise identical
        assert any(not np.array_equal(a.matrix, b.matrix) for a, b in zip(first, other))
        for q in first:
            assert ck.vanishes_on(q, sub, tol=1e-12)


class TestKernelCorollaries:
    def test_threshold_dimension(self):
        for trial in range(60):
            rng = ck.Rng(73, stream=trial)
            n = 2 + trial % 7
            big_n = 1 + trial % 4
            dim_l = (big_n * n) // (big_n + 1) + 1
            sub = ck.Subspace(rng.orthonormal(n, dim_l))
            quads = ck.random_quadrics_on(sub, big_n, seed=100 + trial)
            assert ck.common_kernel(quads).dim >= 1

    def test_shifted_dimension(self):
        for trial in range(60):
            rng = ck.Rng(79, stream=trial)
            n = 3 + trial % 6
            big_n = 1 + trial % 4
            k = trial % 3
            dim_l = (big_n * n + k) // (big_n + 1) + 1
            sub = ck.Subspace(rng.orthonormal(n, dim_l))
            quads = ck.random_quadrics_on(sub, big_n, seed=200 + trial)
            assert ck.common_kernel(quads).dim >= k + 1


class TestEmptyInputs:
    def test_intersect_empty_list(self):
        with pytest.raises(ck.InputError):
            ck.intersect([])

    def test_common_kernel_empty_list(self):
        with pytest.raises(ck.InputError):
            ck.common_kernel([])

    def test_mixed_ambient_dimensions(self):
        with pytest.raises(ck.InputError):
            ck.common_kernel([ck.QuadraticForm(np.eye(2)), ck.QuadraticForm(np.eye(3))])
        with pytest.raises(ck.InputError):
            ck.vanishes_on(ck.QuadraticForm(np.eye(2)), ck.Subspace.full(3))


class TestSubspace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ck.InputError):
            ck.Subspace(np.ones((3, 2)))

    def test_from_span_collapses_dependent_columns(self):
        v = np.array([[1.0], [1.0j]])
        sub = ck.Subspace.from_span(np.concatenate([v, 2 * v], axis=1))
        assert sub.dim == 1

    def test_too_wide_rejected(self):
        with pytest.raises(ck.InputError):
            ck.Subspace(np.eye(3, dtype=complex)[:2].T @ np.eye(2))  # shape guard
            ck.Subspace(np.ones((2, 3)))
