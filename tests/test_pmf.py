"""Unit tests for the path-length PMFs (paper Eq. 6-8)."""

import math

import numpy as np
import pytest

from repro.core import GeometricPMF, PoissonPMF, UniformPMF, make_pmf


class TestUniform:
    def test_constant_weight(self):
        pmf = UniformPMF(tau=5)
        assert pmf.omega(0) == pytest.approx(0.2)
        assert pmf.omega(5) == pytest.approx(0.2)

    def test_zero_beyond_tau(self):
        pmf = UniformPMF(tau=5)
        assert pmf.omega(6) == 0.0

    def test_paper_mass_quirk(self):
        # Eq. (6) sums to (tau + 1) / tau, reproduced verbatim.
        pmf = UniformPMF(tau=4)
        assert pmf.weights(4).sum() == pytest.approx(5 / 4)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            UniformPMF(tau=0)

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            UniformPMF(tau=2).omega(-1)


class TestGeometric:
    def test_values(self):
        pmf = GeometricPMF(alpha=0.3)
        assert pmf.omega(0) == pytest.approx(0.3)
        assert pmf.omega(2) == pytest.approx(0.3 * 0.49)

    def test_mass_approaches_one(self):
        pmf = GeometricPMF(alpha=0.5)
        assert pmf.weights(60).sum() == pytest.approx(1.0, abs=1e-12)

    def test_decreasing(self):
        pmf = GeometricPMF(alpha=0.2)
        weights = pmf.weights(10)
        assert (np.diff(weights) < 0).all()

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            GeometricPMF(alpha=0.0)
        with pytest.raises(ValueError):
            GeometricPMF(alpha=1.0)


class TestPoisson:
    def test_values_match_formula(self):
        pmf = PoissonPMF(lam=2.0)
        for ell in range(6):
            expected = math.exp(-2.0) * 2.0 ** ell / math.factorial(ell)
            assert pmf.omega(ell) == pytest.approx(expected)

    def test_mass_approaches_one(self):
        pmf = PoissonPMF(lam=1.0)
        assert pmf.weights(40).sum() == pytest.approx(1.0, abs=1e-12)

    def test_mode_at_lambda(self):
        # For integer lambda the PMF peaks at ell = lambda (and lambda - 1).
        pmf = PoissonPMF(lam=3.0)
        weights = pmf.weights(10)
        assert np.argmax(weights) in (2, 3)

    def test_large_ell_stable(self):
        pmf = PoissonPMF(lam=1.0)
        assert pmf.omega(300) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(pmf.omega(300))

    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            PoissonPMF(lam=0.0)
        with pytest.raises(ValueError):
            PoissonPMF(lam=-1.0)


class TestWeightsVector:
    def test_length(self):
        assert PoissonPMF(lam=1.0).weights(7).shape == (8,)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            PoissonPMF(lam=1.0).weights(-1)

    def test_matches_elementwise(self):
        pmf = GeometricPMF(alpha=0.4)
        weights = pmf.weights(5)
        for ell, weight in enumerate(weights):
            assert weight == pytest.approx(pmf.omega(ell))


class TestFactory:
    def test_uniform(self):
        pmf = make_pmf("uniform", tau=7)
        assert isinstance(pmf, UniformPMF)
        assert pmf.tau == 7

    def test_geometric(self):
        pmf = make_pmf("geometric", alpha=0.25)
        assert isinstance(pmf, GeometricPMF)
        assert pmf.alpha == 0.25

    def test_poisson(self):
        pmf = make_pmf("Poisson", lam=2.0)
        assert isinstance(pmf, PoissonPMF)
        assert pmf.lam == 2.0

    def test_defaults(self):
        assert make_pmf("poisson").lam == 1.0
        assert make_pmf("geometric").alpha == 0.5
        assert make_pmf("uniform").tau == 20

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown PMF"):
            make_pmf("zipf")
