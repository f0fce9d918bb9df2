import numpy as np
import pytest

import curvkit as ck
from curvkit.hermform import _pair_change_of_basis, monomial_vector, pair_dim
from curvkit.zeroset import check_certificate


def theta_decomposition(f):
    return ck.SquareDecomposition(f.shape[0], neg=(ck.QuadraticForm(f),))


class TestBoundFormulas:
    def test_main1_values(self):
        assert ck.bound_main1(4, 1) == 2
        assert ck.bound_main1(2, 1) == 1
        assert ck.bound_main1(8, 3) == 2

    def test_main1_matches_odd_dimension_pattern(self):
        # single-square models: the bound equals ceil(n / 2)
        for n in range(1, 13):
            assert ck.bound_main1(n, 1) == (n + 1) // 2

    def test_main2_values(self):
        assert ck.bound_main2(4, 1, 0) == 0
        assert ck.bound_main2(4, 1, 4) == 2
        assert ck.bound_main2(5, 2, 3) == 1

    def test_main2_consistency(self):
        for n in range(1, 13):
            for big_n in range(1, 7):
                assert ck.bound_main2(n, big_n, n) == ck.bound_main1(n, big_n)
                assert ck.bound_main2(n, big_n, 0) == 0

    def test_domain_checks(self):
        with pytest.raises(ck.InputError):
            ck.bound_main1(4, 0)
        with pytest.raises(ck.InputError):
            ck.bound_main2(4, 1, 5)
        with pytest.raises(ck.InputError):
            ck.bound_main2(4, 1, -1)


class TestEtaUpper:
    def test_full_rank_single_quadric(self):
        rng = ck.Rng(83)
        dec = theta_decomposition(ck.random_symmetric_with_rank(5, 5, rng).matrix)
        upper, provenance = ck.eta_upper(dec)
        assert upper == 2
        assert provenance == ((0, 5, 2),)

    def test_sharp_model_8_3(self):
        dec, _ = ck.local_sharp_example(8, 3)
        upper, provenance = ck.eta_upper(dec)
        assert upper == 6
        assert all(rank == 4 and bound == 6 for _, rank, bound in provenance)

    def test_zero_form(self):
        dec = ck.SquareDecomposition(4)
        upper, provenance = ck.eta_upper(dec)
        assert upper == 4 and provenance == ()

    def test_indefinite_rejected(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        dec = ck.SquareDecomposition(2, pos=(f,), neg=(g,))
        with pytest.raises(ck.PreconditionError):
            ck.eta_upper(dec)


class TestEtaLowerSearch:
    def test_theta_identity_unique_line(self):
        dim, witness = ck.eta_lower_search(theta_decomposition(np.eye(2)), trials=4, seed=0)
        assert dim == 1
        v = witness.basis[:, 0]
        target = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert abs(np.vdot(target, v)) == pytest.approx(1.0, abs=1e-9)

    def test_sharp_4_1_plane(self):
        dec, _ = ck.local_sharp_example(4, 1)
        dim, witness = ck.eta_lower_search(dec, trials=16, seed=0)
        assert dim == 2
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        check_certificate(form, witness)

    def test_full_rank_matches_upper(self):
        rng = ck.Rng(89)
        dec = theta_decomposition(ck.random_symmetric_with_rank(6, 6, rng).matrix)
        dim, witness = ck.eta_lower_search(dec, trials=4, seed=0)
        upper, _ = ck.eta_upper(dec)
        assert dim == 3 == upper

    def test_zero_form_full_space(self):
        dim, witness = ck.eta_lower_search(ck.SquareDecomposition(3), trials=1, seed=0)
        assert dim == 3 and witness.dim == 3

    def test_monotone_in_trials(self):
        dec, _ = ck.local_sharp_example(8, 3)
        dims = []
        for trials in (1, 3, 10, 40):
            dim, _ = ck.eta_lower_search(dec, trials=trials, seed=5)
            dims.append(dim)
        assert dims == sorted(dims)

    def test_single_quadric_exact_across_ranks(self):
        for trial in range(100):
            rng = ck.Rng(97, stream=trial)
            n = 2 + trial % 7
            r = int(rng.uniform(1)[0] * (n + 1))
            dec = theta_decomposition(ck.random_symmetric_with_rank(n, r, rng).matrix)
            dim, witness = ck.eta_lower_search(dec, trials=2, seed=trial)
            upper, _ = ck.eta_upper(dec)
            assert dim == upper == ck.isotropic_bound(n, r)
            check_certificate(ck.from_quadric_squares(dec.pos, dec.neg), witness)


class TestVerifyPoint:
    def test_theta_full_rank_sharp(self):
        rng = ck.Rng(101)
        f = ck.random_symmetric_with_rank(4, 4, rng)
        report = ck.verify_point(ck.graph_curvature([f.matrix], -1), trials=8, seed=0)
        assert report.N == 1
        assert report.n_R == 4
        assert report.eta.exact and report.eta.lower == 2
        assert report.r_point == 2 == report.bound_main1
        assert report.pass_main1 is True and report.pass_main2 is True

    def test_sharp_4_1_definite_ricci(self):
        dec, _ = ck.local_sharp_example(4, 1)
        report = ck.verify_point(ck.recover(dec), trials=16, seed=0)
        assert report.eta.exact and report.r_point == 2 == report.bound_main1
        assert report.ricci_definite
        assert abs(report.ricci_det) > 0

    def test_theta_degenerate_ricci(self):
        report = ck.verify_point(
            ck.graph_curvature([np.diag([1.0, 0.0])], -1), trials=4, seed=0
        )
        assert report.n_R == 1
        assert report.ricci_det == pytest.approx(0.0, abs=1e-12)
        assert not report.ricci_definite
        assert report.pass_main1 is True and report.pass_main2 is True

    def test_indefinite_rejected_with_signature(self):
        f = ck.QuadraticForm(np.diag([1.0, 0.0]))
        g = ck.QuadraticForm(np.diag([0.0, 1.0]))
        curv = ck.recover(ck.SquareDecomposition(2, pos=(f,), neg=(g,)))
        with pytest.raises(ck.PreconditionError, match="signature"):
            ck.verify_point(curv)

    def test_zero_curvature(self):
        report = ck.verify_point(ck.KahlerCurvature.zero(3), trials=1, seed=0)
        assert report.N == 0 and report.n_R == 0
        assert report.eta.exact and report.eta.lower == 3
        assert report.r_point == 0 == report.bound_main1 == report.bound_main2
        assert report.pass_main1 is True and report.pass_main2 is True


class TestLocalSharpExample:
    def test_4_1(self):
        dec, meta = ck.local_sharp_example(4, 1)
        assert meta["eta"] == 2 and dec.N == 1
        ric = ck.ricci(ck.recover(dec))
        np.testing.assert_allclose(ric, 0.25 * np.eye(4), atol=1e-14)

    def test_3_2(self):
        dec, meta = ck.local_sharp_example(3, 2)
        assert dec.N == 2
        ric = ck.ricci(ck.recover(dec))
        np.testing.assert_allclose(ric, 0.25 * np.diag([1.0, 1.0, 2.0]), atol=1e-14)
        report = ck.verify_point(ck.recover(dec), trials=16, seed=0)
        assert report.r_point == 1 == ck.bound_main1(3, 2)
        assert report.ricci_definite

    def test_8_3(self):
        dec, meta = ck.local_sharp_example(8, 3)
        report = ck.verify_point(ck.recover(dec), trials=64, seed=0)
        assert report.eta.exact and report.eta.lower == 6
        assert report.r_point == 2 == ck.bound_main1(8, 3)
        assert report.ricci_definite

    def test_negative_twin(self):
        dec, meta = ck.local_sharp_example(4, 1, negative=True)
        assert not dec.pos and len(dec.neg) == 1
        assert meta["orientation"] == -1
        assert ck.scalar(ck.recover(dec)) < 0

    def test_sign_symmetry_of_certification(self):
        # the mirrored semi-negative model certifies identically: same eta
        # bracket and point value, Ricci negated
        for n, big_n in ((4, 1), (3, 2), (8, 3)):
            plus, _ = ck.local_sharp_example(n, big_n)
            minus, _ = ck.local_sharp_example(n, big_n, negative=True)
            rp = ck.verify_point(ck.recover(plus), trials=64, seed=0)
            rm = ck.verify_point(ck.recover(minus), trials=64, seed=0)
            assert (rp.eta.lower, rp.eta.upper) == (rm.eta.lower, rm.eta.upper)
            assert rp.r_point == rm.r_point and rp.N == rm.N
            assert rm.ricci_definite
            np.testing.assert_allclose(
                ck.ricci(ck.recover(minus)), -ck.ricci(ck.recover(plus)), atol=1e-14
            )

    def test_degenerate_rejected(self):
        with pytest.raises(ck.InputError):
            ck.local_sharp_example(1, 1)


class TestCertificates:
    def test_sound_witness_accepted(self):
        dec, _ = ck.local_sharp_example(6, 1)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        _, witness = ck.eta_lower_search(dec, trials=4, seed=0)
        check_certificate(form, witness)

    def test_bogus_witness_rejected(self):
        dec, _ = ck.local_sharp_example(4, 1)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        bogus = ck.Subspace(np.eye(4, dtype=complex)[:, (0, 2)])  # z1 z3 != 0 there
        with pytest.raises(ck.NumericalError):
            check_certificate(form, bogus)

    def test_pullback_reproduces_form_values(self):
        # the pulled-back matrix is the form restricted to the witness
        rng = ck.Rng(107)
        form = ck.HermitianForm22(rng.complex_normal((pair_dim(6), pair_dim(6))))
        basis = ck.Subspace.from_span(rng.complex_normal((6, 3))).basis
        s_b = _pair_change_of_basis(basis)
        restricted = s_b.conj().T @ form.matrix @ s_b
        for _ in range(10):
            c = rng.complex_normal(3)
            w = monomial_vector(c)
            assert float((w.conj() @ restricted @ w).real) == pytest.approx(
                form.evaluate(basis @ c), rel=1e-10, abs=1e-12
            )

    def test_rotated_witness_accepted(self):
        dec, _ = ck.local_sharp_example(8, 3)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        _, witness = ck.eta_lower_search(dec, trials=16, seed=0)
        rotation = ck.Rng(109).unitary(witness.dim)
        check_certificate(form, ck.Subspace(witness.basis @ rotation))

    def test_tilted_witness_rejected(self):
        dec, _ = ck.local_sharp_example(6, 2)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        _, witness = ck.eta_lower_search(dec, trials=16, seed=0)
        check_certificate(form, witness)
        outside = ck.Rng(113).complex_normal(6)
        outside /= np.linalg.norm(outside)
        assert form.evaluate(outside) > 1e-3 * form.norm()
        tilted = witness.basis.copy()
        tilted[:, 0] += 1e-3 * outside
        with pytest.raises(ck.NumericalError):
            check_certificate(form, ck.Subspace.from_span(tilted))

    def test_independent_of_seed(self):
        dec, _ = ck.local_sharp_example(4, 1)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        _, witness = ck.eta_lower_search(dec, trials=4, seed=0)
        bogus = ck.Subspace.from_span(ck.Rng(127).complex_normal((4, 3)))
        messages = set()
        for seed in (0, 1, 2**40):
            check_certificate(form, witness, seed=seed)
            with pytest.raises(ck.NumericalError) as err:
                check_certificate(form, bogus, seed=seed)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_dimension_mismatch_rejected(self):
        dec, _ = ck.local_sharp_example(4, 1)
        form = ck.from_quadric_squares(dec.pos, dec.neg)
        with pytest.raises(ck.InputError):
            check_certificate(form, ck.Subspace.full(5))

    def test_generated_instances_respect_bounds(self):
        # semi-definite instances from both generators satisfy
        # n - eta >= bound(n, N, n_R), with equality on the sharp models
        for n, big_n in ((4, 1), (6, 1), (3, 2), (8, 3), (5, 2), (6, 2)):
            dec, _ = ck.local_sharp_example(n, big_n)
            report = ck.verify_point(ck.recover(dec), trials=200, seed=1)
            assert report.pass_main1 is not False
            assert report.pass_main2 is not False
        for trial in range(20):
            rng = ck.Rng(103, stream=trial)
            n = 2 + trial % 6
            r = 1 + int(rng.uniform(1)[0] * n)
            f = ck.random_symmetric_with_rank(n, r, rng)
            report = ck.verify_point(ck.graph_curvature([f.matrix], -1), trials=4, seed=trial)
            assert report.eta.exact
            # the kernel-aware bound is unconditional; the plain bound needs a
            # definite Ricci matrix (rank-deficient Hessians break it)
            assert report.pass_main2 is True
            if report.ricci_definite:
                assert report.pass_main1 is True
