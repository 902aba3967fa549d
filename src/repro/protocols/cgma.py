"""CGMA-style simultaneous broadcast via sequential VSS (linear rounds) [7].

Chor, Goldwasser, Micali and Awerbuch achieve simultaneity by having every
party *verifiably secret-share* its bit before anything is revealed: a
rushing adversary sees only hiding commitments and at most t shares, and
the perfectly binding Feldman commitments fix every announced value at
dealing time.  Dealings run sequentially — one dealer at a time, three
rounds each (deal, complain, resolve) — giving the Θ(n) round complexity
the paper attributes to [7]; the reveal phase is a single round.

A dealer that leaves any complaint unresolved (or broadcasts malformed
commitments) is publicly disqualified and announced as the default 0;
this is also what defeats commitment-copying, since a copier cannot
produce shares consistent with somebody else's polynomial.

Requires t < n/2 so that honest shares alone reconstruct every secret.

:class:`CGMABroadcast` deals sequentially (the faithful shape);
:class:`CGMAParallelDealing` is the ablation where all dealings share the
same three rounds, trading the round complexity down to O(1) while keeping
the same machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..crypto.commitment import PedersenParameters
from ..crypto.group import SchnorrGroup
from ..crypto.secret_sharing import Share
from ..crypto.vss import FeldmanDealing, FeldmanVSS, PedersenShare, PedersenVSS
from ..errors import InvalidParameterError, ShareError
from ..net.message import broadcast, send
from .base import DEFAULT_BIT, ParallelBroadcastProtocol, coerce_bit


class _DealerState:
    """Everything a party tracks about one dealer's VSS instance."""

    def __init__(self):
        self.commitments: Optional[Tuple] = None
        self.share: Optional[Share] = None
        self.disqualified: bool = False
        self.complainers: Set[int] = set()


def _parse_commitments(group: SchnorrGroup, payload, expected_length: int):
    """Decode a broadcast commitment vector; None if malformed."""
    try:
        values = [int(v) for v in payload]
    except (TypeError, ValueError):
        return None
    if len(values) != expected_length:
        return None
    try:
        return tuple(group.element(v) for v in values)
    except Exception:
        return None


class CGMABroadcast(ParallelBroadcastProtocol):
    """Sequential-dealing VSS simultaneous broadcast (Sb-independent)."""

    name = "cgma"
    sequential_dealing = True
    vss_flavor = "feldman"

    def __init__(self, n: int, t: int, security_bits: int = 24):
        super().__init__(n=n, t=t, security_bits=security_bits)
        if 2 * t >= n:
            raise InvalidParameterError(f"CGMA requires t < n/2 (got t={t}, n={n})")

    def setup(self, rng):
        # One VSS instance per execution, shared by every party: each
        # dealer's reveal is then batch-verified once, not once per party
        # (see the reveal memo of FeldmanVSS.reconstruct).
        group = SchnorrGroup.for_security(self.security_bits)
        return {"group": group, "vss": self._make_vss(group)}

    # -- VSS flavour indirection ----------------------------------------------------

    def _make_vss(self, group: SchnorrGroup):
        if self.vss_flavor == "pedersen":
            parameters = PedersenParameters.generate(group, seed=b"cgma-pedersen")
            return PedersenVSS(parameters, self.t, self.n)
        return FeldmanVSS(group, self.t, self.n)

    def _serialize_share(self, share) -> object:
        if self.vss_flavor == "pedersen":
            return (share.value, share.blinding)
        return share.value

    def _parse_share(self, vss, x: int, payload) -> object:
        """A received share, its residues reduced mod q; None if malformed."""
        q = vss.field.modulus
        try:
            if self.vss_flavor == "pedersen":
                value, blinding = payload
                return PedersenShare(x, int(value) % q, int(blinding) % q)
            return Share(x, int(payload) % q)
        except (TypeError, ValueError):
            return None

    # -- one dealer's three-round VSS, as a sub-generator --------------------------

    def _deal_phase(self, ctx, vss, dealer: int, value):
        """Sub-generator for dealer ``dealer``; returns this party's state."""
        me = ctx.party_id
        state = _DealerState()
        dealing: Optional[FeldmanDealing] = None
        com_tag = f"cgma:{dealer}:com"
        share_tag = f"cgma:{dealer}:share"
        complain_tag = f"cgma:{dealer}:complain"
        resolve_tag = f"cgma:{dealer}:resolve"

        # Round A: the dealer broadcasts commitments and sends shares.
        if me == dealer:
            dealing = vss.deal(coerce_bit(value), ctx.rng)
            state.share = dealing.shares[me]
            drafts = [
                broadcast(
                    tuple(int(c) for c in dealing.commitments), tag=com_tag
                )
            ]
            drafts += [
                send(j, self._serialize_share(dealing.shares[j]), tag=share_tag)
                for j in ctx.others()
            ]
            inbox = yield drafts
        else:
            inbox = yield []

        if me == dealer:
            state.commitments = dealing.commitments
        else:
            com_messages = [
                m for m in inbox.broadcasts(tag=com_tag) if m.sender == dealer
            ]
            if com_messages:
                state.commitments = _parse_commitments(
                    vss.group, com_messages[0].payload, self.t + 1
                )
            if state.commitments is None:
                state.disqualified = True
            share_message = inbox.first_from(dealer, tag=share_tag)
            if share_message is not None:
                state.share = self._parse_share(vss, me, share_message.payload)

        # Round B: complaints.
        complain = (
            me != dealer
            and not state.disqualified
            and (
                state.share is None
                or not vss.verify_share(state.commitments, state.share)
            )
        )
        if complain:
            state.share = None
            inbox = yield [broadcast("complaint", tag=complain_tag)]
        else:
            inbox = yield []
        state.complainers = {
            m.sender for m in inbox.broadcasts(tag=complain_tag) if m.sender != dealer
        }

        # Round C: resolution — the dealer publishes complained shares.
        if me == dealer and state.complainers:
            published = tuple(
                (j, self._serialize_share(dealing.shares[j]))
                for j in sorted(state.complainers)
                if j in dealing.shares
            )
            inbox = yield [broadcast(published, tag=resolve_tag)]
        else:
            inbox = yield []

        if not state.disqualified and state.complainers:
            published_shares: Dict[int, Share] = {}
            response = [
                m for m in inbox.broadcasts(tag=resolve_tag) if m.sender == dealer
            ]
            if response:
                try:
                    for j, raw in response[0].payload:
                        share = self._parse_share(vss, int(j), raw)
                        if share is not None:
                            published_shares[int(j)] = share
                except (TypeError, ValueError):
                    published_shares = {}
            for j in state.complainers:
                share = published_shares.get(j)
                if share is None or not vss.verify_share(state.commitments, share):
                    state.disqualified = True
                    break
            if not state.disqualified and me in state.complainers:
                state.share = published_shares.get(me)
        return state

    # -- the full protocol -----------------------------------------------------------

    def program(self, ctx, value):
        vss = ctx.config["vss"]
        states: Dict[int, _DealerState] = {}

        if self.sequential_dealing:
            for dealer in range(1, self.n + 1):
                states[dealer] = yield from self._deal_phase(ctx, vss, dealer, value)
        else:
            from ..net.compose import run_in_lockstep

            states = yield from run_in_lockstep(
                {
                    dealer: self._deal_phase(ctx, vss, dealer, value)
                    for dealer in range(1, self.n + 1)
                }
            )

        # Reveal round: broadcast all held shares at once.
        payload = tuple(
            (dealer, self._serialize_share(state.share))
            for dealer, state in states.items()
            if not state.disqualified and state.share is not None
        )
        inbox = yield [broadcast(payload, tag="cgma:reveal")]

        collected: Dict[int, List[Share]] = {d: [] for d in range(1, self.n + 1)}
        for message in inbox.broadcasts(tag="cgma:reveal"):
            try:
                entries = list(message.payload)
            except TypeError:
                continue
            for entry in entries:
                try:
                    dealer, raw = entry
                    dealer = int(dealer)
                except (TypeError, ValueError):
                    continue
                share = self._parse_share(vss, message.sender, raw)
                if share is not None and dealer in collected:
                    collected[dealer].append(share)

        announced = []
        for dealer in range(1, self.n + 1):
            state = states[dealer]
            if state.disqualified or state.commitments is None:
                announced.append(DEFAULT_BIT)
                continue
            try:
                secret = vss.reconstruct(state.commitments, collected[dealer])
            except ShareError:
                announced.append(DEFAULT_BIT)
                continue
            announced.append(coerce_bit(secret))
        return tuple(announced)


class CGMAParallelDealing(CGMABroadcast):
    """Ablation: all n dealings share the same three rounds (constant depth)."""

    name = "cgma-parallel"
    sequential_dealing = False


class CGMAPedersen(CGMABroadcast):
    """Ablation: Pedersen VSS (perfectly hiding) instead of Feldman.

    Feldman commitments reveal g^x, which for bit secrets is only
    *computationally* hiding; the Pedersen variant hides the dealt bit
    information-theoretically at the cost of doubling share size and
    relying on discrete log for binding instead of hiding.
    """

    name = "cgma-pedersen"
    vss_flavor = "pedersen"
