import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvkit as ck
from curvkit.hermform import _pair_change_of_basis, monomial_vector, pair_dim, pair_indices


def form_from_diag(diag):
    return ck.HermitianForm22(np.diag(np.asarray(diag, dtype=complex)))


class TestEvaluate:
    def test_single_negative_monomial(self):
        form = ck.HermitianForm22(np.array([[-1.0]]))
        assert form.evaluate([1.0]) == -1.0

    def test_difference_square_vanishes_on_circle(self):
        # diag(1, -2, 1) on (v1^2, v1 v2, v2^2) represents (|v1|^2 - |v2|^2)^2
        form = form_from_diag([1.0, -2.0, 1.0])
        assert form.evaluate([1.0, 1.0]) == pytest.approx(0.0, abs=1e-14)
        assert form.evaluate([1.0, 0.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        form = form_from_diag([1.0, -2.0, 1.0])
        with pytest.raises(ck.InputError):
            form.evaluate([1.0, 0.0, 0.0])

    def test_realness_on_random_directions(self):
        rng = ck.Rng(3)
        a = rng.complex_normal((6, 6))
        form = ck.HermitianForm22(a)  # Hermitian-averaged
        w = rng.complex_normal((1000, 3))
        for v in w:
            raw = monomial_vector(v).conj() @ form.matrix @ monomial_vector(v)
            assert abs(raw.imag) <= 1e-10 * max(abs(raw), 1.0)


class TestPairBasis:
    def test_pair_count(self):
        assert pair_dim(4) == 10
        assert len(pair_indices(4)) == 10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32))
    def test_coefficient_roundtrip(self, n, seed):
        rng = ck.Rng(seed)
        q = ck.QuadraticForm(rng.symmetric(n))
        back = ck.QuadraticForm.from_pair_coefficients(n, q.pair_coefficients())
        np.testing.assert_allclose(back.matrix, q.matrix, atol=1e-14)

    def test_forms_match_monomial_pairing(self):
        rng = ck.Rng(11)
        q = ck.QuadraticForm(rng.symmetric(4))
        v = rng.complex_normal(4)
        direct = q(v)
        via_pairs = q.pair_coefficients() @ monomial_vector(v)
        assert direct == pytest.approx(via_pairs)


class TestPairChangeOfBasis:
    @staticmethod
    def loop_reference(t):
        idx, cols = pair_indices(t.shape[0]), pair_indices(t.shape[1])
        s = np.zeros((len(idx), len(cols)), dtype=complex)
        for row, (i, k) in enumerate(idx):
            for col, (a, b) in enumerate(cols):
                s[row, col] = t[i, a] * t[k, b]
                if a != b:
                    s[row, col] += t[i, b] * t[k, a]
        return s

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 4), (7, 7), (12, 12), (6, 2), (9, 5), (3, 0)])
    def test_matches_loop_bitwise(self, n, d):
        t = ck.Rng(n * 31 + d).complex_normal((n, d))
        np.testing.assert_array_equal(_pair_change_of_basis(t), self.loop_reference(t))

    def test_maps_monomial_vectors(self):
        rng = ck.Rng(29)
        t = rng.complex_normal((7, 3))
        c = rng.complex_normal(3)
        np.testing.assert_allclose(
            _pair_change_of_basis(t) @ monomial_vector(c), monomial_vector(t @ c), atol=1e-12
        )


class TestFromQuadricSquares:
    def test_single_positive_square(self):
        q = ck.QuadraticForm(np.array([[1.0]]))
        form = ck.from_quadric_squares([q], [])
        np.testing.assert_allclose(form.matrix, [[1.0]])

    def test_single_negative_cross_term(self):
        q = ck.QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))
        form = ck.from_quadric_squares([], [q])
        v = [0.7 + 0.2j, -0.4 + 0.9j]
        assert form.evaluate(v) == pytest.approx(-abs(v[0] * v[1]) ** 2)

    def test_isotropic_vector_of_sum_of_squares(self):
        q = ck.QuadraticForm(np.eye(2))
        form = ck.from_quadric_squares([q], [])
        assert form.evaluate([1.0, 1.0j]) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ck.InputError):
            ck.from_quadric_squares([ck.QuadraticForm(np.eye(2))], [ck.QuadraticForm(np.eye(3))])

    def test_empty_rejected(self):
        with pytest.raises(ck.InputError):
            ck.from_quadric_squares([], [])


class TestSignature:
    def test_difference_square(self):
        assert ck.signature(form_from_diag([1.0, -2.0, 1.0])) == (2, 1, 0)

    def test_zero_form(self):
        assert ck.signature(ck.HermitianForm22.zero(3)) == (0, 0, 6)

    def test_negative_line(self):
        assert ck.signature(ck.HermitianForm22(np.array([[-1.0]]))) == (0, 1, 0)

    def test_sylvester_invariance(self):
        # congruence by the induced pair-basis map preserves the signature
        for trial in range(40):
            rng = ck.Rng(17, stream=trial)
            n = 2 + trial % 4
            form = ck.HermitianForm22(rng.complex_normal((pair_dim(n), pair_dim(n))))
            chart = rng.complex_normal((n, n))
            if np.linalg.cond(chart) > 1e6:
                continue
            assert ck.signature(ck.pullback(form, chart)) == ck.signature(form)


class TestDecompose:
    def test_negative_monomial(self):
        dec = ck.decompose(ck.HermitianForm22(np.array([[-1.0]])))
        assert (len(dec.pos), len(dec.neg), dec.N) == (0, 1, 1)

    def test_difference_square_structure(self):
        dec = ck.decompose(form_from_diag([1.0, -2.0, 1.0]))
        assert dec.N == 2
        assert len(dec.pos) == 2 and len(dec.neg) == 1
        # negative side spans sqrt(2) * v1 v2
        g = dec.neg[0]
        assert abs(g([1.0, 1.0])) == pytest.approx(np.sqrt(2.0))
        assert g([1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_rank_one_negative(self):
        q = ck.QuadraticForm(np.eye(2))
        form = ck.from_quadric_squares([], [q])
        dec = ck.decompose(form)
        assert (len(dec.pos), len(dec.neg), dec.N) == (0, 1, 1)
        v = ck.Rng(5).complex_normal(2)
        assert dec.evaluate(v) == pytest.approx(form.evaluate(v))

    def test_reconstruction_random(self):
        worst = 0.0
        for trial in range(60):
            rng = ck.Rng(23, stream=trial)
            n = 2 + trial % 5  # up to n = 6
            d = pair_dim(n)
            form = ck.HermitianForm22(rng.complex_normal((d, d)))
            dec = ck.decompose(form)
            back = ck.from_quadric_squares(dec.pos, dec.neg)
            worst = max(worst, np.linalg.norm(back.matrix - form.matrix) / form.norm())
        assert worst <= 1e-8

    def test_sides_are_orthogonal_in_pair_coordinates(self):
        rng = ck.Rng(29)
        form = ck.HermitianForm22(rng.complex_normal((10, 10)))
        dec = ck.decompose(form)
        coeffs = [q.pair_coefficients() for q in dec.pos + dec.neg]
        for a in range(len(coeffs)):
            for b in range(a + 1, len(coeffs)):
                inner = abs(np.vdot(coeffs[a], coeffs[b]))
                assert inner <= 1e-8 * np.linalg.norm(coeffs[a]) * np.linalg.norm(coeffs[b])


class TestDangeloSystem:
    def test_semidefinite_case_returns_pos(self):
        q = ck.QuadraticForm(np.array([[1.0, 0.0], [0.0, 2.0]]))
        dec = ck.SquareDecomposition(2, pos=(q,))
        out = ck.dangelo_system(dec, np.eye(1))
        np.testing.assert_allclose(out[0].matrix, q.matrix)

    def test_unit_scalar(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        dec = ck.SquareDecomposition(2, pos=(f,), neg=(g,))
        out = ck.dangelo_system(dec, [[1.0]])
        np.testing.assert_allclose(out[0].matrix, np.diag([1.0, -1.0]))
        assert out[0]([1.0, 1.0]) == pytest.approx(0.0)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        assert form.evaluate([1.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_negated_scalar(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        dec = ck.SquareDecomposition(2, pos=(f,), neg=(g,))
        out = ck.dangelo_system(dec, [[-1.0]])
        np.testing.assert_allclose(out[0].matrix, np.eye(2))
        assert out[0]([1.0, 1.0j]) == pytest.approx(0.0, abs=1e-14)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        assert form.evaluate([1.0, 1.0j]) == pytest.approx(0.0, abs=1e-14)

    def test_non_unitary_rejected(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        dec = ck.SquareDecomposition(2, pos=(f,), neg=(g,))
        with pytest.raises(ck.InputError):
            ck.dangelo_system(dec, [[2.0]])
        with pytest.raises(ck.InputError):
            ck.dangelo_system(dec, np.eye(3))

    def test_common_zeros_lie_in_zero_set(self):
        # sample zeros of the system on random 2-planes; every zero found must
        # annihilate the represented polynomial
        for trial in range(25):
            rng = ck.Rng(31, stream=trial)
            n = 2 + trial % 3
            f = ck.QuadraticForm(rng.symmetric(n))
            g = ck.QuadraticForm(rng.symmetric(n))
            dec = ck.SquareDecomposition(n, pos=(f,), neg=(g,))
            form = ck.from_quadric_squares(dec.pos, dec.neg)
            u = rng.unitary(1)
            (h,) = ck.dangelo_system(dec, u)
            plane = rng.orthonormal(n, 2)
            a = h.bilinear(plane[:, 0], plane[:, 0])
            b = 2.0 * h.bilinear(plane[:, 0], plane[:, 1])
            c = h.bilinear(plane[:, 1], plane[:, 1])
            # roots of a t^2 + b t + c give zeros (t, 1) on the plane
            if abs(a) < 1e-12:
                continue
            disc = np.sqrt(complex(b * b - 4 * a * c))
            for t in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
                v = plane @ np.array([t, 1.0])
                v /= np.linalg.norm(v)
                assert abs(h(v)) <= 1e-9
                assert abs(form.evaluate(v)) <= 1e-8 * max(form.norm(), 1.0)
