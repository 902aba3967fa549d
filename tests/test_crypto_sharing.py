"""Tests for Shamir sharing, Lagrange coefficients and both VSS schemes."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.crypto.commitment import PedersenParameters
from repro.crypto.field import PrimeField
from repro.crypto.group import SchnorrGroup
from repro.crypto.secret_sharing import ShamirSharing, Share, lagrange_coefficients_at_zero
from repro.crypto.vss import FeldmanVSS, PedersenVSS
from repro.errors import InvalidParameterError, ShareError
from repro.obs import Metrics
from repro.obs import runtime as obs_runtime

F = PrimeField(101)
GROUP = SchnorrGroup.for_security(24)
PARAMS = PedersenParameters.generate(GROUP)


def _shares(scheme, secret, rng):
    """One dealing of ``secret``: each party's share, by party."""
    _, points = scheme.deal(secret, rng)
    return {x: Share(x, y) for x, y in enumerate(points, 1)}


class TestInterpolation:
    def test_coefficients_at_zero_match_interpolation(self):
        rng = random.Random(3)
        coefficients = [rng.randrange(101) for _ in range(5)]  # degree 4
        xs = [1, 2, 3, 4, 5]
        lambdas = lagrange_coefficients_at_zero(F, xs)
        total = 0
        for lam, x in zip(lambdas, xs, strict=True):
            total += lam * sum(c * x**k for k, c in enumerate(coefficients))
        assert total % 101 == coefficients[0]

    def test_coefficients_duplicate_x_rejected(self):
        with pytest.raises(ShareError):
            lagrange_coefficients_at_zero(F, [1, 1, 2])
        with pytest.raises(ShareError):  # the same point mod 101
            lagrange_coefficients_at_zero(F, [1, 102])

    def test_coefficients_sum_to_one(self):
        # Interpolating the constant-1 polynomial must give exactly 1.
        lambdas = lagrange_coefficients_at_zero(F, [2, 4, 6])
        assert all(type(lam) is int and 0 <= lam < 101 for lam in lambdas)
        assert sum(lambdas) % 101 == 1


class TestShamir:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            ShamirSharing(F, 3, 3)  # threshold must be < parties
        with pytest.raises(InvalidParameterError):
            ShamirSharing(F, -1, 3)
        with pytest.raises(InvalidParameterError):
            ShamirSharing(F, 0, 0)
        with pytest.raises(InvalidParameterError):
            ShamirSharing(PrimeField(3), 1, 4)  # field too small

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_share_reconstruct_roundtrip(self, secret, seed):
        scheme = ShamirSharing(F, 2, 5)
        shares = _shares(scheme, secret, random.Random(seed))
        assert scheme.reconstruct(list(shares.values())[:3]) == secret

    def test_any_quorum_reconstructs(self):
        scheme = ShamirSharing(F, 2, 5)
        shares = _shares(scheme, 42, random.Random(1))
        import itertools

        for subset in itertools.combinations(shares.values(), 3):
            assert scheme.reconstruct(subset) == 42

    def test_too_few_shares_rejected(self):
        scheme = ShamirSharing(F, 2, 5)
        shares = _shares(scheme, 42, random.Random(1))
        with pytest.raises(ShareError):
            scheme.reconstruct(list(shares.values())[:2])

    def test_duplicate_shares_rejected(self):
        scheme = ShamirSharing(F, 1, 4)
        shares = _shares(scheme, 9, random.Random(1))
        with pytest.raises(ShareError):
            scheme.reconstruct([shares[1], shares[1], shares[2]])

    def test_threshold_shares_reveal_nothing(self):
        # Perfect privacy: for any t shares, every secret is equally likely.
        # We verify the weaker but testable consequence: the distribution of
        # one share is uniform regardless of the secret.
        scheme = ShamirSharing(F, 1, 3)
        counts = {0: {}, 1: {}}
        for secret in (0, 1):
            for seed in range(400):
                value = _shares(scheme, secret, random.Random(seed))[1].value
                counts[secret][value] = counts[secret].get(value, 0) + 1
        # Total variation between the two share distributions should be small.
        support = set(counts[0]) | set(counts[1])
        tv = sum(
            abs(counts[0].get(v, 0) - counts[1].get(v, 0)) for v in support
        ) / (2 * 400)
        assert tv < 0.25

    def test_linear_homomorphism(self):
        scheme = ShamirSharing(F, 2, 5)
        shares_a = _shares(scheme, 10, random.Random(1))
        shares_b = _shares(scheme, 20, random.Random(2))
        # Shares add pointwise: BGW's local ADD gates rely on it.
        summed = [Share(i, (shares_a[i].value + shares_b[i].value) % 101) for i in range(1, 6)]
        assert scheme.reconstruct(summed[:3]) == 30

    def test_scaling_homomorphism(self):
        scheme = ShamirSharing(F, 2, 5)
        shares = _shares(scheme, 10, random.Random(1))
        scaled = [Share(i, shares[i].value * 5 % 101) for i in range(1, 6)]
        assert scheme.reconstruct(scaled[:3]) == 50


class TestFeldmanVSS:
    def setup_method(self):
        self.vss = FeldmanVSS(GROUP, threshold=2, parties=5)

    def test_deal_and_verify_all_shares(self):
        dealing = self.vss.deal(1, random.Random(3))
        assert len(dealing.commitments) == 3
        for share in dealing.shares.values():
            assert self.vss.verify_share(dealing.commitments, share)

    def test_tampered_share_rejected(self):
        dealing = self.vss.deal(1, random.Random(3))
        share = dealing.shares[2]
        tampered = Share(share.x, (share.value + 1) % GROUP.q)
        assert not self.vss.verify_share(dealing.commitments, tampered)

    def test_wrong_commitment_vector_length_rejected(self):
        dealing = self.vss.deal(1, random.Random(3))
        assert not self.vss.verify_share(
            dealing.commitments[:2], dealing.shares[1]
        )

    def test_reconstruct_ignores_bad_shares(self):
        dealing = self.vss.deal(1, random.Random(4))
        shares = list(dealing.shares.values())
        shares[0] = Share(shares[0].x, (shares[0].value + 1) % GROUP.q)  # corrupted
        secret = self.vss.reconstruct(dealing.commitments, shares)
        assert secret == 1

    def test_reconstruct_insufficient_valid_shares(self):
        dealing = self.vss.deal(1, random.Random(4))
        shares = [Share(s.x, (s.value + 1) % GROUP.q) for s in dealing.shares.values()]
        with pytest.raises(ShareError):
            self.vss.reconstruct(dealing.commitments, shares)

    def test_commitment_to_secret_is_g_to_s(self):
        # The constant term's commitment is the implied commitment g^s.
        dealing = self.vss.deal(7, random.Random(5))
        assert dealing.commitments[0] == GROUP.power(7)

    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_bit_secrets_roundtrip(self, bit, seed):
        dealing = self.vss.deal(bit, random.Random(seed))
        secret = self.vss.reconstruct(
            dealing.commitments, list(dealing.shares.values())
        )
        assert secret == bit


class TestPedersenVSS:
    def setup_method(self):
        self.vss = PedersenVSS(PARAMS, threshold=2, parties=5)

    def test_deal_and_verify(self):
        dealing = self.vss.deal(1, random.Random(8))
        for share in dealing.shares.values():
            assert self.vss.verify_share(dealing.commitments, share)

    def test_tampered_value_rejected(self):
        from repro.crypto.vss import PedersenShare

        dealing = self.vss.deal(1, random.Random(8))
        share = dealing.shares[3]
        tampered = PedersenShare(share.x, (share.value + 1) % GROUP.q, share.blinding)
        assert not self.vss.verify_share(dealing.commitments, tampered)

    def test_tampered_blinding_rejected(self):
        from repro.crypto.vss import PedersenShare

        dealing = self.vss.deal(1, random.Random(8))
        share = dealing.shares[3]
        tampered = PedersenShare(share.x, share.value, (share.blinding + 1) % GROUP.q)
        assert not self.vss.verify_share(dealing.commitments, tampered)

    def test_reconstruct(self):
        dealing = self.vss.deal(1, random.Random(9))
        secret = self.vss.reconstruct(
            dealing.commitments, list(dealing.shares.values())
        )
        assert secret == 1

    def test_reconstruct_with_minimum_quorum(self):
        dealing = self.vss.deal(1, random.Random(9))
        subset = [dealing.shares[i] for i in (2, 4, 5)]
        assert self.vss.reconstruct(dealing.commitments, subset) == 1

    def test_insufficient_shares_rejected(self):
        dealing = self.vss.deal(1, random.Random(9))
        with pytest.raises(ShareError):
            self.vss.reconstruct(dealing.commitments, [dealing.shares[1]])

    def test_commitments_hide_secret(self):
        # Perfect hiding: the commitment vectors for secrets 0 and 1 with the
        # same rng stream are different group elements but both verify, and
        # nothing in the public view pins the secret (we just sanity-check
        # that commitments are not trivially equal to g^s).
        dealing0 = self.vss.deal(0, random.Random(10))
        assert dealing0.commitments[0] != GROUP.power(0)


VSS_FLAVOURS = {
    "feldman": lambda: FeldmanVSS(GROUP, threshold=2, parties=5),
    "pedersen": lambda: PedersenVSS(PARAMS, threshold=2, parties=5),
}


def _bumped(share, field="value"):
    return dataclasses.replace(share, **{field: (getattr(share, field) + 1) % GROUP.q})


def _observed_reconstruct(vss, commitments, shares):
    """The secret (or the ShareError) and the counters one reconstruct charged."""
    with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
        try:
            outcome = vss.reconstruct(commitments, shares)
        except ShareError as error:
            outcome = f"ShareError: {error}"
    return outcome, metrics.snapshot()


class TestRevealMemo:
    """``reconstruct`` memoizes verdicts per instance; a hit charges as a recompute."""

    @pytest.mark.parametrize("flavour", sorted(VSS_FLAVOURS))
    @pytest.mark.parametrize("bad", [0, 1, 3])
    def test_repeat_on_one_instance_equals_fresh_instances(self, flavour, bad):
        """All valid (batch accept), one bad (per-item fallback) and three bad
        (too few valid shares: ShareError)."""
        make = VSS_FLAVOURS[flavour]
        dealing = make().deal(1, random.Random(40 + bad))
        shares = list(dealing.shares.values())
        shares[:bad] = [_bumped(share) for share in shares[:bad]]
        fastpath.reset_stats()
        vss = make()
        repeated = [_observed_reconstruct(vss, dealing.commitments, shares) for _ in range(2)]
        assert fastpath.stats()["counters"]["fastpath.batch.calls"] == 1
        fresh = [_observed_reconstruct(make(), dealing.commitments, shares) for _ in range(2)]
        assert repeated == fresh
        assert repeated[0] == repeated[1]
        assert repeated[0][0] == (1 if bad < 3 else "ShareError: only 2 valid shares; need 3")

    @pytest.mark.parametrize(
        "flavour,change",
        [
            ("feldman", "x"),
            ("feldman", "value"),
            ("feldman", "commitment"),
            ("pedersen", "x"),
            ("pedersen", "value"),
            ("pedersen", "blinding"),
            ("pedersen", "commitment"),
        ],
    )
    def test_changed_content_misses_the_memo(self, flavour, change):
        make = VSS_FLAVOURS[flavour]
        vss = make()
        dealing = vss.deal(1, random.Random(50))
        commitments, shares = dealing.commitments, list(dealing.shares.values())
        assert _observed_reconstruct(vss, commitments, shares)[0] == 1  # all valid, memoized
        if change == "commitment":
            commitments = (commitments[0] * GROUP.generator, *commitments[1:])
        elif change == "x":
            shares[1] = dataclasses.replace(shares[1], x=6)
        else:
            shares[1] = _bumped(shares[1], change)
        fastpath.reset_stats()
        changed = _observed_reconstruct(vss, commitments, shares)
        assert fastpath.stats()["counters"]["fastpath.batch.calls"] == 1  # a miss
        assert changed == _observed_reconstruct(make(), commitments, shares)
        rejected = changed[1]["counters"]["crypto.vss.shares_rejected"]
        assert rejected == (5 if change == "commitment" else 1)
