"""Consistent-hash ring: deterministic shard assignment for the
sharded serving tier.

The router in front of N worker processes must send *identical*
requests to the *same* worker — otherwise the per-worker result memo
and single-flight coalescing stop collapsing repeats — while spreading
*distinct* requests evenly and moving as little traffic as possible
when a worker joins or leaves. A consistent-hash ring with virtual
nodes gives all three:

* every member contributes ``vnodes`` placement points on a 64-bit
  ring, each point a pure SHA-256 hash of ``(member, index)`` under
  :data:`~repro.fingerprint.ROUTER_RING_SALT` — no :mod:`random`
  state, no process identity, no wall clock. Two rings built from the
  same member set (in any order, in any process, before or after a
  pickle round-trip) assign every key identically;
* a key is assigned to the member owning the first placement point at
  or clockwise after the key's own hash, so with 128 vnodes the load
  spread stays within ~2× of uniform for realistic member counts;
* removing a member deletes only that member's points: keys assigned
  to *other* members never move (exactly — not probabilistically),
  and adding a member steals roughly ``1/(N+1)`` of the keyspace,
  taken proportionally from everyone.

Rings are immutable; :meth:`HashRing.restrict` derives the rebalanced
ring, which is what makes failover deterministic: every router that
observes the same set of healthy workers computes the same assignment
for every key.
"""

from __future__ import annotations

from bisect import bisect_right

from ..fingerprint import ROUTER_RING_SALT, fingerprint

#: Placement points per member. 128 keeps the spread within ~2x of
#: uniform (checked by a hypothesis suite) at ~10µs build cost per
#: member.
DEFAULT_VNODES = 128


class RingEmpty(LookupError):
    """Assignment was requested from a ring with no members."""


def _point(label: str) -> int:
    """A 64-bit ring position for *label* (pure content hash)."""
    return int(fingerprint(label, salt=ROUTER_RING_SALT)[:16], 16)


class HashRing:
    """An immutable consistent-hash ring over named members."""

    __slots__ = ("members", "vnodes", "_points", "_owners")

    def __init__(self, members, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        names = sorted(set(str(member) for member in members))
        self.members: tuple[str, ...] = tuple(names)
        self.vnodes = vnodes
        placed: list[tuple[int, str]] = []
        for member in names:
            placed.extend((_point(f"{member}#{index}"), member)
                          for index in range(vnodes))
        # sort by (point, member): the member tie-break keeps even a
        # 64-bit point collision deterministic
        placed.sort()
        self._points = [point for point, _ in placed]
        self._owners = [member for _, member in placed]

    # -- assignment ------------------------------------------------------

    def assign(self, key: str) -> str:
        """The member owning *key* (raises :class:`RingEmpty` when
        the ring has no members)."""
        if not self._points:
            raise RingEmpty("hash ring has no members")
        index = bisect_right(self._points, _point(key))
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]

    def spread(self, keys) -> dict[str, int]:
        """``{member: assigned-key count}`` over *keys* (zero-filled)."""
        counts = {member: 0 for member in self.members}
        for key in keys:
            counts[self.assign(key)] += 1
        return counts

    # -- derivation ------------------------------------------------------

    def restrict(self, members) -> "HashRing":
        """A ring over ``self.members ∩ members`` — what the router
        uses to exclude unhealthy workers deterministically."""
        allowed = set(members)
        kept = tuple(name for name in self.members if name in allowed)
        if kept == self.members:
            return self
        return HashRing(kept, self.vnodes)

    # -- identity --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HashRing)
                and self.members == other.members
                and self.vnodes == other.vnodes)

    def __hash__(self) -> int:
        return hash((self.members, self.vnodes))

    def __repr__(self) -> str:
        return (f"HashRing(members={list(self.members)!r}, "
                f"vnodes={self.vnodes})")

    # -- pickling (worker processes receive rings by value) --------------

    def __getstate__(self) -> dict[str, object]:
        # placement points are derived state: rebuilding them from the
        # member set is what guarantees cross-process determinism
        return {"members": self.members, "vnodes": self.vnodes}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(state["members"], state["vnodes"])  # type: ignore[arg-type]
