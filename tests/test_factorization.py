"""Forward-model tests against exhaustive boolean enumeration."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logit

from negfactor.errors import CapacityError, DimensionError
from negfactor.factorization import (
    FactorParams,
    Hyperparams,
    enumeration_oracle,
    forward_negraising,
    negraising_grid,
)

from conftest import (
    random_factor_params,
    reference_or_probability,
    saturated,
)


class TestHyperparams:
    def test_rejects_double_zero(self):
        with pytest.raises(DimensionError):
            Hyperparams(n_lexical=0, n_structural=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            Hyperparams(n_lexical=5, n_structural=1)
        with pytest.raises(DimensionError):
            Hyperparams(n_lexical=1, n_structural=-1)

    def test_accepts_boundaries(self):
        assert Hyperparams(0, 1).n_lexical == 0
        assert Hyperparams(4, 4).n_structural == 4

    def test_representative_joins_zero_and_one_lexical(self):
        for t in range(1, 5):
            assert Hyperparams(0, t).representative() == Hyperparams(1, t)
            assert Hyperparams(1, t).representative() == Hyperparams(1, t)
        for point in [(1, 0), (2, 0), (2, 3), (4, 4)]:
            assert Hyperparams(*point).representative() == Hyperparams(*point)


class TestAbsorption:
    @pytest.mark.parametrize("n_structural", [1, 2, 3, 4])
    def test_one_lexical_model_absorbs_into_zero_lexical(self, n_structural):
        # lambda'_vt = lambda_vt psi_v and omega'_tjk = omega_tjk phi_jk turn a
        # (1, t) model into a (0, t) model with the same cell probabilities
        rng = np.random.default_rng(40 + n_structural)
        for _ in range(50):
            params = random_factor_params(rng, Hyperparams(1, n_structural),
                                          n_verbs=5, n_frames=3)
            probs = params.probabilities()
            absorbed = FactorParams.from_probabilities(
                Hyperparams(0, n_structural), n_verbs=5, n_frames=3,
                lambda_=probs.lambda_ * probs.psi,
                pi=probs.pi,
                omega=probs.omega * probs.phi,
            )
            assert_allclose(negraising_grid(absorbed), negraising_grid(params),
                            rtol=0, atol=1e-12)


class TestFactorParams:
    def test_shape_mismatch_rejected(self):
        hyper = Hyperparams(1, 1)
        with pytest.raises(DimensionError):
            FactorParams(
                hyper=hyper,
                n_verbs=3,
                n_frames=2,
                lambda_logits=np.zeros((3, 2)),  # wrong structural width
                pi_logits=np.zeros((1, 2)),
                omega_logits=np.zeros((1, 2, 2)),
                psi_logits=np.zeros((3, 1)),
                phi_logits=np.zeros((1, 2, 2)),
            )

    def test_frozen_side_must_be_absent(self):
        hyper = Hyperparams(0, 1)
        with pytest.raises(DimensionError):
            FactorParams(
                hyper=hyper,
                n_verbs=2,
                n_frames=2,
                lambda_logits=np.zeros((2, 1)),
                pi_logits=np.zeros((1, 2)),
                omega_logits=np.zeros((1, 2, 2)),
                psi_logits=np.zeros((2, 1)),  # must be None when n_lexical == 0
                phi_logits=None,
            )

    def test_probabilities_of_frozen_side_are_exactly_one(self):
        params = FactorParams.from_probabilities(
            Hyperparams(0, 1),
            n_verbs=2,
            n_frames=2,
            lambda_=[[0.5], [0.5]],
            pi=[[0.5, 0.5]],
            omega=[[[0.5, 0.5], [0.5, 0.5]]],
        )
        probs = params.probabilities()
        assert probs.psi.shape == (2, 1)
        assert probs.phi.shape == (1, 2, 2)
        assert np.all(probs.psi == 1.0)
        assert np.all(probs.phi == 1.0)


class TestForwardNegraising:
    def test_all_ones_saturate(self):
        params = FactorParams(
            hyper=Hyperparams(1, 1),
            n_verbs=1,
            n_frames=1,
            lambda_logits=saturated(1, 1),
            pi_logits=saturated(1, 1),
            omega_logits=saturated(1, 2, 2),
            psi_logits=saturated(1, 1),
            phi_logits=saturated(1, 2, 2),
        )
        assert forward_negraising(params, 0, 0, 0, 0) == 1.0

    def test_single_pair_product(self):
        # P(lambda) = P(psi) = 0.8, rest saturated: 1 - (1 - 0.64) = 0.64
        params = FactorParams(
            hyper=Hyperparams(1, 1),
            n_verbs=1,
            n_frames=1,
            lambda_logits=logit(np.array([[0.8]])),
            pi_logits=saturated(1, 1),
            omega_logits=saturated(1, 2, 2),
            psi_logits=logit(np.array([[0.8]])),
            phi_logits=saturated(1, 2, 2),
        )
        assert_allclose(forward_negraising(params, 0, 0, 1, 1), 0.64, rtol=0, atol=1e-12)

    def test_matches_reference_enumeration(self):
        rng = np.random.default_rng(7012)
        for _ in range(40):
            n_i = int(rng.integers(0, 3))
            n_t = int(rng.integers(0, 3))
            if n_i == 0 and n_t == 0:
                n_t = 1
            params = random_factor_params(rng, Hyperparams(n_i, n_t), n_verbs=3, n_frames=2)
            probs = params.probabilities()
            v = int(rng.integers(3))
            f = int(rng.integers(2))
            j = int(rng.integers(2))
            k = int(rng.integers(2))
            expected = reference_or_probability(
                probs.lambda_[v], probs.pi[:, f], probs.omega[:, j, k],
                probs.psi[v], probs.phi[:, j, k],
            )
            assert_allclose(forward_negraising(params, v, f, j, k), expected, rtol=0, atol=1e-10)

    def test_matches_library_oracle(self):
        rng = np.random.default_rng(90210)
        for _ in range(100):
            n_i = int(rng.integers(0, 4))
            n_t = int(rng.integers(0, 4))
            if n_i == 0 and n_t == 0:
                n_i = 1
            params = random_factor_params(rng, Hyperparams(n_i, n_t), n_verbs=3, n_frames=3)
            v, f = int(rng.integers(3)), int(rng.integers(3))
            j, k = int(rng.integers(2)), int(rng.integers(2))
            assert_allclose(
                forward_negraising(params, v, f, j, k),
                enumeration_oracle(params, v, f, j, k),
                rtol=0,
                atol=1e-10,
            )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5150)
        params = random_factor_params(rng, Hyperparams(2, 2), n_verbs=4, n_frames=3)
        v = rng.integers(0, 4, size=20)
        f = rng.integers(0, 3, size=20)
        j = rng.integers(0, 2, size=20)
        k = rng.integers(0, 2, size=20)
        batch = forward_negraising(params, v, f, j, k)
        assert batch.shape == (20,)
        for m in range(20):
            assert batch[m] == forward_negraising(params, int(v[m]), int(f[m]), int(j[m]), int(k[m]))

    def test_monotone_in_each_factor(self):
        rng = np.random.default_rng(314)
        for _ in range(25):
            params = random_factor_params(rng, Hyperparams(2, 2), n_verbs=2, n_frames=2)
            base = forward_negraising(params, 0, 0, 0, 0)
            name = ["lambda_logits", "pi_logits", "omega_logits", "psi_logits", "phi_logits"][rng.integers(5)]
            arr = getattr(params, name)
            bumped = arr.copy()
            flat_index = rng.integers(arr.size)
            bumped.flat[flat_index] += 0.5  # raises one probability
            kwargs = {
                "hyper": params.hyper,
                "n_verbs": params.n_verbs,
                "n_frames": params.n_frames,
                "lambda_logits": params.lambda_logits,
                "pi_logits": params.pi_logits,
                "omega_logits": params.omega_logits,
                "psi_logits": params.psi_logits,
                "phi_logits": params.phi_logits,
            }
            kwargs[name] = bumped
            assert forward_negraising(FactorParams(**kwargs), 0, 0, 0, 0) >= base

    def test_boundary_embedding(self):
        # A second structural column with P(lambda) = 0 is inert.
        rng = np.random.default_rng(2718)
        small = random_factor_params(rng, Hyperparams(1, 1), n_verbs=3, n_frames=2)
        wide = FactorParams(
            hyper=Hyperparams(1, 2),
            n_verbs=3,
            n_frames=2,
            lambda_logits=np.hstack([small.lambda_logits, np.full((3, 1), -800.0)]),
            pi_logits=np.vstack([small.pi_logits, rng.normal(size=(1, 2))]),
            omega_logits=np.concatenate([small.omega_logits, rng.normal(size=(1, 2, 2))]),
            psi_logits=small.psi_logits,
            phi_logits=small.phi_logits,
        )
        for v in range(3):
            for f in range(2):
                for j in range(2):
                    for k in range(2):
                        assert_allclose(
                            forward_negraising(wide, v, f, j, k),
                            forward_negraising(small, v, f, j, k),
                            rtol=0,
                            atol=1e-14,
                        )

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1618)
        params = random_factor_params(rng, Hyperparams(3, 3), n_verbs=3, n_frames=2)
        perm_t = rng.permutation(3)
        perm_i = rng.permutation(3)
        permuted = FactorParams(
            hyper=params.hyper,
            n_verbs=params.n_verbs,
            n_frames=params.n_frames,
            lambda_logits=params.lambda_logits[:, perm_t],
            pi_logits=params.pi_logits[perm_t],
            omega_logits=params.omega_logits[perm_t],
            psi_logits=params.psi_logits[:, perm_i],
            phi_logits=params.phi_logits[perm_i],
        )
        for v in range(3):
            for f in range(2):
                assert_allclose(
                    forward_negraising(params, v, f, 1, 0),
                    forward_negraising(permuted, v, f, 1, 0),
                    rtol=0,
                    atol=1e-14,
                )


class TestEnumerationOracle:
    def test_all_zero_probabilities(self):
        params = FactorParams(
            hyper=Hyperparams(1, 1),
            n_verbs=1,
            n_frames=1,
            lambda_logits=np.full((1, 1), -800.0),
            pi_logits=np.full((1, 1), -800.0),
            omega_logits=np.full((1, 2, 2), -800.0),
            psi_logits=np.full((1, 1), -800.0),
            phi_logits=np.full((1, 2, 2), -800.0),
        )
        assert enumeration_oracle(params, 0, 0, 0, 0) == 0.0

    def test_single_pairing_is_plain_product(self):
        params = FactorParams.from_probabilities(
            Hyperparams(1, 1),
            n_verbs=1,
            n_frames=1,
            lambda_=[[0.3]],
            pi=[[0.7]],
            omega=[[[0.9, 0.9], [0.9, 0.9]]],
            psi=[[0.4]],
            phi=[[[0.8, 0.8], [0.8, 0.8]]],
        )
        probs = params.probabilities()
        product = float(
            probs.lambda_[0, 0] * probs.pi[0, 0] * probs.omega[0, 0, 1]
            * probs.psi[0, 0] * probs.phi[0, 0, 1]
        )
        assert_allclose(enumeration_oracle(params, 0, 0, 0, 1), product, rtol=0, atol=1e-14)

    def test_capacity_error(self):
        rng = np.random.default_rng(33)
        params = random_factor_params(rng, Hyperparams(4, 4), n_verbs=1, n_frames=1)
        with pytest.raises(CapacityError):
            enumeration_oracle(params, 0, 0, 0, 0)
