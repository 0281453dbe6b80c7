"""Domain model: owners, partitions, transfers, the permutation kernel, RNG streams.

Entry ids are opaque non-negative ints. An owner partition maps owner ids to
entry sets; owner entry sets may overlap (owners can hold copies of the same
entry), and an owner may be empty. All types are immutable after construction;
mutation happens only by building new values (see apply_transfer).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

EntryId = int
OwnerId = str


class ShapcfError(Exception):
    """Base class for contract violations."""


class MalformedInput(ShapcfError):
    """Input file or config does not match its documented shape."""


class UnknownColumn(ShapcfError):
    """A named column is absent from the dataset."""


class UnknownOwner(ShapcfError):
    """An owner id is absent from the partition."""


class SameOwner(ShapcfError):
    """An operation on an owner pair was given the same owner twice."""


class SingletonOwner(ShapcfError):
    """Power of an entry is undefined when its owner has only that entry."""


class DeltaNotOwned(ShapcfError):
    """A transfer names entries outside the source owner's set."""


class NonFiniteScore(ShapcfError):
    """A utility scored a composed set as NaN or +inf."""


class TooManyOwners(ShapcfError):
    """Exact enumeration was requested above its owner-count limit."""


class TooLarge(ShapcfError):
    """Brute-force search was requested above its entry-count limit."""


class SizeOverflow(ShapcfError):
    """A generator was asked for owner sizes exceeding the available entries."""


def is_integer(value: object) -> bool:
    """An int or numpy integer, not a bool: what a count or budget must be."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A real number other than NaN (infinities allowed), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and not math.isnan(value)


# A rule for a configured value: what the value must be, and the test.
Rule = tuple[str, Callable[[object], bool]]
COUNT_RULE: Rule = ("an integer >= 1", lambda v: is_integer(v) and v >= 1)


def entry_ids(owner: OwnerId, ids: Iterable[object]) -> frozenset[EntryId]:
    """`ids` as a frozenset of int entry ids; any other id raises MalformedInput."""
    ids = list(ids)
    types = set(map(type, ids))
    if types <= {int}:  # the common case, without a check per id
        return frozenset(ids)
    bad_types = {t for t in types if not issubclass(t, numbers.Integral) or issubclass(t, bool)}
    if bad_types:  # each distinct type is checked once, as is_integer would judge its ids
        bad = [e for e in ids if type(e) in bad_types]
        raise MalformedInput(f"owner {owner!r}: entry ids must be integers, got {bad[:8]!r}")
    return frozenset(map(int, ids))


def check_values(what: str, checks: Iterable[tuple[str, object, Rule]]) -> None:
    """Raise MalformedInput naming every (name, value, rule) whose value fails its rule."""
    bad = [f"{name}={value!r} (need {need})" for name, value, (need, ok) in checks if not ok(value)]
    if bad:
        raise MalformedInput(f"bad {what} {', '.join(bad)}")


@dataclass(frozen=True)
class OwnerPartition:
    """Assignment of entries to named owners.

    Parameters
    ----------
    owners : mapping of owner id to an iterable of entry ids.

    At least two owners are required. The mapping is copied and normalized to
    frozensets; composed coalition entry sets are cached per instance since
    estimators revisit the same coalitions constantly.
    """

    owners: dict[OwnerId, frozenset[EntryId]]
    _composed: dict[frozenset[OwnerId], frozenset[EntryId]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        normalized = {str(o): entry_ids(o, ents) for o, ents in self.owners.items()}
        if len(normalized) < 2:
            raise MalformedInput(f"a partition needs at least 2 owners, got {len(normalized)}")
        object.__setattr__(self, "owners", normalized)

    @property
    def n(self) -> int:
        return len(self.owners)

    def owner_ids(self) -> tuple[OwnerId, ...]:
        return tuple(sorted(self.owners))

    def entries(self, owner: OwnerId) -> frozenset[EntryId]:
        try:
            return self.owners[owner]
        except KeyError:
            raise UnknownOwner(f"unknown owner {owner!r}") from None

    def universe(self) -> frozenset[EntryId]:
        return self.composed(self.owners)

    def composed(self, coalition: Iterable[OwnerId]) -> frozenset[EntryId]:
        """Union of the coalition members' entry sets."""
        key = frozenset(coalition)
        cached = self._composed.get(key)
        if cached is None:
            unknown = key - self.owners.keys()
            if unknown:
                raise UnknownOwner(f"unknown owners {sorted(unknown)}")
            cached = frozenset().union(*(self.owners[o] for o in key))
            self._composed[key] = cached
        return cached


@dataclass(frozen=True)
class Transfer:
    """Move of a set of entries from one owner to another."""

    source: OwnerId
    target: OwnerId
    delta: frozenset[EntryId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", entry_ids(self.source, self.delta))
        if self.source == self.target:
            raise SameOwner(f"transfer source and target are both {self.source!r}")


def apply_transfer(partition: OwnerPartition, transfer: Transfer) -> OwnerPartition:
    """Return the partition after moving transfer.delta from source to target.

    Entries leave the source and join the target; other owners are untouched,
    so the union of all owner sets is preserved. The source may end up empty.
    The new partition caches its coalition unions afresh.
    """
    src = partition.entries(transfer.source)
    missing = transfer.delta - src
    if missing:
        raise DeltaNotOwned(
            f"entries {sorted(missing)} are not held by owner {transfer.source!r}"
        )
    owners = dict(partition.owners)
    owners[transfer.source] = src - transfer.delta
    owners[transfer.target] = partition.entries(transfer.target) | transfer.delta
    return OwnerPartition(owners)


# Rows drawn per kernel call at most; bounds memory for large budgets without
# changing the draws (successive calls continue the same stream).
DRAW_CHUNK = 4096


def draw_orders(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k uniform orderings of owner indices 0..n-1, one per row.

    Row i is bit for bit the ordering the i-th of k successive
    rng.permutation(n) calls would draw, and rng ends in the same state.
    """
    return rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)


def prefix_terms(
    partition: OwnerPartition,
    orders: np.ndarray,
    targets: Sequence[OwnerId],
    term: Callable[[list[list[OwnerId]]], Sequence[float]],
    memo: dict[bytes, float],
) -> np.ndarray:
    """term(P) for each ordering, where P are the owners placed before every target.

    orders holds indices into partition.owner_ids(), one ordering per row.
    Rows are grouped by P, packed as an owner bitmask of any width, so each
    distinct prefix is scored once; memo (prefix key to term) carries those
    values across calls. term is called once, with every distinct prefix not
    yet in memo, each as owner ids in sorted order, and returns their terms
    in that order. The result is in row order.
    """
    ids = partition.owner_ids()
    pos = orders.argsort(axis=1)  # pos[r, o]: place of owner o in row r
    cut = pos[:, [ids.index(t) for t in targets]].min(axis=1)
    before = pos < cut[:, None]
    packed = np.packbits(before, axis=1)
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    keys = unique.tolist()
    values = [memo.get(key) for key in keys]
    todo = [i for i, value in enumerate(values) if value is None]
    if todo:
        rows = before[first[todo]].tolist()
        prefixes = [[o for o, inside in zip(ids, row) if inside] for row in rows]
        for i, value in zip(todo, term(prefixes)):
            values[i] = memo[keys[i]] = value
    return np.array(values, dtype=np.float64)[inverse]


def draw_chunks(n: int, k: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """draw_orders(n, k, rng) in blocks of at most DRAW_CHUNK rows."""
    for done in range(0, k, DRAW_CHUNK):
        yield draw_orders(n, min(DRAW_CHUNK, k - done), rng)


def sample_terms(
    partition: OwnerPartition,
    targets: Sequence[OwnerId],
    term: Callable[[list[list[OwnerId]]], Sequence[float]],
    memo: dict[bytes, float],
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw k owner orderings and return their prefix terms in draw order."""
    chunks = [
        prefix_terms(partition, orders, targets, term, memo)
        for orders in draw_chunks(partition.n, k, rng)
    ]
    return np.concatenate(chunks) if chunks else np.empty(0)


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for a named component.

    Streams for distinct (seed, *path) tuples are statistically independent;
    the same tuple always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), *(int(p) for p in path))))
