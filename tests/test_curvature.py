import numpy as np
import pytest

import curvkit as ck
from curvkit.curvature import _orbits


def theta_tensor(f):
    """Graph-metric model tensor for one second-derivative matrix."""
    return ck.graph_curvature([np.asarray(f, dtype=complex)], -1)


class TestValidate:
    def test_zero_tensor(self):
        curv = ck.validate(np.zeros((3, 3, 3, 3)))
        assert curv.n == 3 and curv.max_abs() == 0.0

    def test_one_dimensional(self):
        curv = ck.validate(np.full((1, 1, 1, 1), -1.0 + 0.0j))
        assert curv.tensor[0, 0, 0, 0] == -1.0

    def test_pair_symmetry_violation_located(self):
        raw = np.zeros((2, 2, 2, 2), dtype=complex)
        raw[0, 0, 1, 1] = 1.0  # forces R[1,0,0,1] = 1, left at 0
        with pytest.raises(ck.ValidationError) as err:
            ck.validate(raw)
        assert err.value.max_residual == pytest.approx(1.0)
        assert (2, 1, 1, 2) in err.value.indices

    def test_symmetrization_is_exact(self):
        rng = ck.Rng(1)
        t = ck.random_kahler(4, rng).tensor
        assert np.array_equal(np.einsum("kjil->ijkl", t), t)
        assert np.array_equal(np.einsum("ilkj->ijkl", t), t)
        assert np.array_equal(np.einsum("jilk->ijkl", t.conj()), t)


class TestHsc:
    def test_one_dimensional_value(self):
        curv = ck.validate(np.full((1, 1, 1, 1), -1.0 + 0.0j))
        assert ck.hsc(curv, None, [1.0]) == -1.0

    def test_theta_isotropic_direction(self):
        curv = theta_tensor(np.eye(2))
        assert ck.hsc(curv, None, [1.0, 1.0j]) == pytest.approx(0.0, abs=1e-14)

    def test_theta_coordinate_direction(self):
        curv = theta_tensor(np.eye(2))
        assert ck.hsc(curv, None, [1.0, 0.0]) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        curv = theta_tensor(np.eye(2))
        with pytest.raises(ck.InputError):
            ck.hsc(curv, None, [0.0, 0.0])

    def test_scale_invariance(self):
        for trial in range(100):
            rng = ck.Rng(2, stream=trial)
            curv = ck.random_kahler(3, rng)
            v = rng.complex_normal(3)
            c = rng.complex_normal(1)[0]
            a = ck.hsc(curv, None, v)
            b = ck.hsc(curv, None, c * v)
            assert b == pytest.approx(a, rel=1e-10)

    def test_nontrivial_metric(self):
        rng = ck.Rng(3)
        curv = ck.random_kahler(3, rng)
        g = rng.complex_normal((3, 3))
        metric = ck.HermitianMetric(g @ g.conj().T + 3 * np.eye(3))
        v = rng.complex_normal(3)
        pairing = np.einsum("ij,i,j->", metric.matrix, v, v.conj()).real
        num = np.einsum("ijkl,i,j,k,l->", curv.tensor, v, v.conj(), v, v.conj()).real
        assert ck.hsc(curv, metric, v) == pytest.approx(num / pairing**2)


class TestNumeratorForm:
    def test_one_dimensional(self):
        curv = ck.validate(np.full((1, 1, 1, 1), -1.0 + 0.0j))
        np.testing.assert_allclose(ck.hsc_numerator_form(curv).matrix, [[-1.0]])

    def test_theta_rank_one(self):
        # H = -|v1^2 + v2^2|^2 is -b b* for the pair vector b of v1^2 + v2^2
        curv = theta_tensor(np.eye(2))
        b = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(
            ck.hsc_numerator_form(curv).matrix, -np.outer(b, b.conj()), atol=1e-14
        )

    def test_zero(self):
        form = ck.hsc_numerator_form(ck.KahlerCurvature.zero(3))
        assert form.norm() == 0.0

    def test_matches_contraction(self):
        for trial in range(50):
            rng = ck.Rng(5, stream=trial)
            n = 2 + trial % 4
            curv = ck.random_kahler(n, rng)
            form = ck.hsc_numerator_form(curv)
            v = rng.complex_normal(n)
            num = np.einsum("ijkl,i,j,k,l->", curv.tensor, v, v.conj(), v, v.conj()).real
            assert form.evaluate(v) == pytest.approx(num, rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bitwise_equal_to_pair_loop(self, n):
        # the index-array gather must round as the scalar loop did, signed
        # zeros included (zero and sparse tensors carry -0.0 parts)
        tensors = [
            ck.random_kahler(n, ck.Rng(13, stream=n)),
            theta_tensor(ck.random_symmetric_with_rank(n, n, ck.Rng(17, stream=n)).matrix),
            ck.KahlerCurvature.zero(n),
        ]
        if n >= 2:
            tensors.append(ck.recover(ck.local_sharp_example(n, 2)[0]))
        idx = ck.pair_indices(n)
        for curv in tensors:
            a = np.empty((len(idx), len(idx)), dtype=complex)
            for row, (i, k) in enumerate(idx):
                mi = 1.0 if i == k else 2.0
                for col, (j, l) in enumerate(idx):
                    mj = 1.0 if j == l else 2.0
                    a[row, col] = mi * mj * curv.tensor[j, i, l, k]
            expected = ck.HermitianForm22(a).matrix
            assert ck.hsc_numerator_form(curv).matrix.tobytes() == expected.tobytes()


def _orbits_loop(n):
    """The orbit table as first written: a loop over quadruples in flat order."""
    plain_maps = (
        lambda i, j, k, l: (i, j, k, l),
        lambda i, j, k, l: (k, j, i, l),
        lambda i, j, k, l: (i, l, k, j),
        lambda i, j, k, l: (k, l, i, j),
    )
    conj_maps = (
        lambda i, j, k, l: (j, i, l, k),
        lambda i, j, k, l: (j, k, l, i),
        lambda i, j, k, l: (l, i, j, k),
        lambda i, j, k, l: (l, k, j, i),
    )
    strides = np.array([n**3, n**2, n, 1])
    seen = np.zeros(n**4, dtype=bool)
    plain_rows, conj_rows, real_rows = [], [], []
    for q in np.ndindex(*(n,) * 4):
        if seen[int(np.dot(q, strides))]:
            continue
        plain = [int(np.dot(p(*q), strides)) for p in plain_maps]
        conj = [int(np.dot(c(*q), strides)) for c in conj_maps]
        seen[plain + conj] = True
        plain_rows.append(plain)
        conj_rows.append(conj)
        real_rows.append(not set(plain).isdisjoint(conj))
    return (
        np.array(plain_rows, dtype=np.intp),
        np.array(conj_rows, dtype=np.intp),
        np.array(real_rows, dtype=bool),
    )


class TestOrbitTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_loop_reference(self, n):
        for got, expected in zip(_orbits(n), _orbits_loop(n)):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestRicciDefinite:
    def test_cut_is_relative_to_spectral_radius(self):
        assert ck.ricci_definite(np.diag([2.0, 1e-8]))
        assert not ck.ricci_definite(np.diag([2.0, 1e-10]))
        assert ck.ricci_definite(np.diag([-2.0, -1e-8]))
        assert not ck.ricci_definite(np.diag([2.0, -1.0]))
        assert not ck.ricci_definite(np.zeros((2, 2)))


class TestRecover:
    def test_single_negative_square_1d(self):
        dec = ck.SquareDecomposition(1, neg=(ck.QuadraticForm([[1.0]]),))
        curv = ck.recover(dec)
        assert curv.tensor[0, 0, 0, 0] == -1.0

    def test_theta_formula(self):
        # recovered tensor of a one-square negative model is -F (x) conj(F)
        rng = ck.Rng(7)
        f = rng.symmetric(3)
        dec = ck.SquareDecomposition(3, neg=(ck.QuadraticForm(f),))
        curv = ck.recover(dec)
        fs = (f + f.T) / 2
        expected = -np.einsum("ik,jl->ijkl", fs, fs.conj())
        np.testing.assert_allclose(curv.tensor, expected, atol=1e-14)
        np.testing.assert_allclose(curv.tensor, theta_tensor(f).tensor, atol=1e-14)

    def test_round_trip_through_form(self):
        worst = 0.0
        for trial in range(100):
            rng = ck.Rng(11, stream=trial)
            n = 2 + trial % 4  # n <= 5
            curv = ck.random_kahler(n, rng)
            back = ck.recover(ck.decompose(ck.hsc_numerator_form(curv)))
            worst = max(
                worst,
                np.linalg.norm(back.tensor - curv.tensor) / np.linalg.norm(curv.tensor),
            )
        assert worst <= 1e-8


class TestGraphCurvature:
    def test_one_dimensional(self):
        curv = ck.graph_curvature([np.array([[1.0]])], -1)
        assert curv.tensor[0, 0, 0, 0] == -1.0

    def test_single_square_value(self):
        curv = ck.graph_curvature([np.eye(2)], -1)
        v = ck.Rng(13).complex_normal(2)
        q = v @ np.eye(2) @ v
        expected = -abs(q) ** 2 / np.linalg.norm(v) ** 4
        assert ck.hsc(curv, None, v) == pytest.approx(expected, rel=1e-10)

    def test_positive_orientation_matches_recover(self):
        dec, _ = ck.local_sharp_example(4, 1)
        mats = [q.matrix for q in dec.pos]
        curv = ck.graph_curvature(mats, +1)
        np.testing.assert_allclose(curv.tensor, ck.recover(dec).tensor, atol=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(ck.InputError):
            ck.graph_curvature([np.array([[0.0, 1.0], [0.0, 0.0]])], -1)
        with pytest.raises(ck.InputError):
            ck.graph_curvature([np.eye(2)], 2)

    def test_hsc_consistency_property(self):
        for trial in range(40):
            rng = ck.Rng(17, stream=trial)
            n = 2 + trial % 4
            f = rng.symmetric(n)
            curv = ck.graph_curvature([f], -1)
            v = rng.complex_normal(n)
            expected = -abs(v @ f @ v) ** 2 / np.linalg.norm(v) ** 4
            assert ck.hsc(curv, None, v) == pytest.approx(expected, rel=1e-10)


class TestRicciScalar:
    def test_zero(self):
        np.testing.assert_allclose(ck.ricci(ck.KahlerCurvature.zero(3)), np.zeros((3, 3)))
        assert ck.scalar(ck.KahlerCurvature.zero(3)) == 0.0

    def test_theta_degenerate_hessian(self):
        curv = theta_tensor(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(ck.ricci(curv), np.diag([-1.0, 0.0]), atol=1e-14)

    def test_one_dimensional_scalar(self):
        curv = ck.validate(np.full((1, 1, 1, 1), -1.0 + 0.0j))
        assert ck.scalar(curv) == -1.0

    def test_scalar_identity_for_one_sided(self):
        rng = ck.Rng(19)
        forms = tuple(ck.QuadraticForm(rng.symmetric(4)) for _ in range(3))
        dec = ck.SquareDecomposition(4, neg=forms)
        s = ck.scalar(ck.recover(dec))
        expected = -sum(q.norm() ** 2 for q in forms)
        assert s == pytest.approx(expected, rel=1e-10)
        assert s <= 0

    def test_hermitian_and_trace_convention(self):
        rng = ck.Rng(23)
        curv = ck.random_kahler(4, rng)
        ric = ck.ricci(curv)
        assert np.linalg.norm(ric - ric.conj().T) <= 1e-12 * np.linalg.norm(ric)
        # the alternative trace over the first index pair is the same matrix
        alt = np.einsum("kkij->ij", curv.tensor)
        np.testing.assert_allclose(ric, alt, atol=1e-12 * np.linalg.norm(ric))

    def test_metric_trace(self):
        rng = ck.Rng(29)
        curv = ck.random_kahler(3, rng)
        m = rng.complex_normal((3, 3))
        metric = ck.HermitianMetric(m @ m.conj().T + 3 * np.eye(3))
        ric = ck.ricci(curv, metric)
        assert np.linalg.norm(ric - ric.conj().T) <= 1e-12 * np.linalg.norm(ric)
        assert ck.scalar(curv, metric) == pytest.approx(
            float(np.trace(metric.inverse() @ ric).real)
        )


class TestCurvatureKernel:
    def test_zero_tensor_full_kernel(self):
        kernel = ck.curvature_kernel(ck.KahlerCurvature.zero(3))
        assert kernel.dim == 3

    def test_theta_degenerate_direction(self):
        kernel = ck.curvature_kernel(theta_tensor(np.diag([1.0, 0.0])))
        assert kernel.dim == 1
        assert kernel.contains([0.0, 1.0])

    def test_theta_full_rank_trivial_kernel(self):
        kernel = ck.curvature_kernel(theta_tensor(np.eye(3)))
        assert kernel.dim == 0


class TestKernelPropagation:
    def test_kernel_vector_clean(self):
        curv = theta_tensor(np.diag([1.0, 0.0]))
        report = ck.kernel_propagation_check(curv, [0.0, 1.0])
        assert report.residual_vv == 0.0
        assert report.residual_v == 0.0
        assert report.hypothesis_met and report.conclusion_met

    def test_kernel_subspace_vectors(self):
        rng = ck.Rng(31)
        f = rng.symmetric(2)
        curv = theta_tensor(np.block([[f, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]]))
        kernel = ck.curvature_kernel(curv)
        assert kernel.dim == 2
        for col in range(kernel.dim):
            report = ck.kernel_propagation_check(curv, kernel.basis[:, col])
            assert report.hypothesis_met and report.conclusion_met

    def test_hypothesis_not_met_reported(self):
        curv = theta_tensor(np.eye(2))
        report = ck.kernel_propagation_check(curv, [1.0, 0.0])
        assert report.residual_vv == pytest.approx(1.0)
        assert not report.hypothesis_met

    def test_indefinite_rejected(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        dec = ck.SquareDecomposition(2, pos=(f,), neg=(g,))
        curv = ck.recover(dec)
        with pytest.raises(ck.PreconditionError):
            ck.kernel_propagation_check(curv, [1.0, 0.0])


class TestMetricValidation:
    def test_not_hermitian(self):
        with pytest.raises(ck.InputError):
            ck.HermitianMetric(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_not_positive(self):
        with pytest.raises(ck.InputError):
            ck.HermitianMetric(np.diag([1.0, -1.0]))
        with pytest.raises(ck.InputError):
            ck.HermitianMetric(np.diag([1.0, 0.0]))
