"""The consistent-hash ring contract, property-tested.

The router's determinism and minimal-remap guarantees all reduce to
three ring properties, each checked here with hypothesis:

* **balance** — at the default 128 vnodes, no member owns more than
  ~2x its uniform share of a large key population;
* **minimal remap** — removing a member moves *only* that member's
  keys (exactly, not probabilistically), and adding a member moves
  keys *only onto* the new member, roughly ``1/(N+1)`` of them;
* **stability** — assignment is a pure function of the member set:
  ring construction order, pickling (process restarts) and repeated
  builds never change an assignment.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import DEFAULT_VNODES, HashRing, RingEmpty

#: A fixed deterministic key population, large enough that per-member
#: shares concentrate near the ring-arc shares the vnodes define.
KEYS = [f"request-key-{i}" for i in range(1200)]

member_names = st.sets(
    st.sampled_from([f"worker{i}" for i in range(16)]),
    min_size=2, max_size=8)


class TestBalance:
    @given(members=member_names)
    @settings(max_examples=40, deadline=None)
    def test_spread_within_2x_of_uniform(self, members):
        ring = HashRing(members, vnodes=DEFAULT_VNODES)
        counts = ring.spread(KEYS)
        uniform = len(KEYS) / len(members)
        assert max(counts.values()) <= 2.0 * uniform, counts
        assert min(counts.values()) > 0, counts

    def test_low_vnode_rings_are_legal_but_unbalanced(self):
        # the 2x bound is a property of DEFAULT_VNODES, not of the
        # data structure; a 1-vnode ring still assigns every key
        ring = HashRing(["a", "b", "c"], vnodes=1)
        counts = ring.spread(KEYS)
        assert sum(counts.values()) == len(KEYS)


class TestMinimalRemap:
    @given(members=member_names, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_leave_moves_only_the_removed_members_keys(self, members,
                                                       data):
        ring = HashRing(members)
        removed = data.draw(st.sampled_from(sorted(members)))
        shrunk = HashRing(members - {removed})
        for key in KEYS:
            before = ring.assign(key)
            after = shrunk.assign(key)
            if before != removed:
                # exact: survivors keep every key they owned
                assert after == before
            else:
                assert after != removed

    @given(members=member_names, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_join_moves_keys_only_onto_the_new_member(self, members,
                                                      data):
        joiner = data.draw(st.sampled_from(
            [f"joiner{i}" for i in range(4)]))
        ring = HashRing(members)
        grown = HashRing(members | {joiner})
        moved = 0
        for key in KEYS:
            before = ring.assign(key)
            after = grown.assign(key)
            if after != before:
                # exact: a reassigned key lands on the joiner, never
                # on another survivor
                assert after == joiner
                moved += 1
        # ~1/(N+1) of the keyspace, with generous concentration slack
        expected = len(KEYS) / (len(members) + 1)
        assert moved <= 2.0 * expected, (moved, expected)

    def test_join_then_leave_is_identity(self):
        ring = HashRing(["a", "b", "c"])
        restored = HashRing(["a", "b", "c", "d"]).restrict(ring.members)
        assert restored == ring
        assert [restored.assign(k) for k in KEYS[:100]] \
            == [ring.assign(k) for k in KEYS[:100]]


class TestStability:
    @given(members=member_names)
    @settings(max_examples=25, deadline=None)
    def test_member_order_never_matters(self, members):
        ordered = HashRing(sorted(members))
        reversed_ = HashRing(sorted(members, reverse=True))
        assert ordered == reversed_
        assert [ordered.assign(k) for k in KEYS[:200]] \
            == [reversed_.assign(k) for k in KEYS[:200]]

    @given(members=member_names)
    @settings(max_examples=25, deadline=None)
    def test_pickle_roundtrip_preserves_every_assignment(self, members):
        ring = HashRing(members)
        clone = pickle.loads(pickle.dumps(ring))
        assert clone == ring
        assert [clone.assign(k) for k in KEYS[:200]] \
            == [ring.assign(k) for k in KEYS[:200]]

    def test_restrict_matches_repeated_removal(self):
        ring = HashRing(["a", "b", "c", "d"])
        assert ring.restrict({"a", "c"}) \
            == ring.restrict({"a", "c", "d"}).restrict({"a", "b", "c"}) \
            == HashRing(["a", "c"])

    def test_duplicate_members_collapse(self):
        assert HashRing(["a", "a", "b"]) == HashRing(["a", "b"])


class TestEdges:
    def test_empty_ring_raises_typed_error(self):
        with pytest.raises(RingEmpty):
            HashRing([]).assign("anything")

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_single_member_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.assign(k) == "only" for k in KEYS[:50])

    def test_spread_zero_fills_idle_members(self):
        ring = HashRing(["a", "b"])
        counts = ring.spread([])
        assert counts == {"a": 0, "b": 0}
