"""Permutations of sheet indices.

Sheets are numbered ``1 .. degree``.  One composition convention is used
everywhere in this package: ``compose(p, q)`` applies ``p`` first, then
``q``.  A product of monodromy entries written left to right therefore
acts with the leftmost factor first, and the product-one relation for a
branched cover reads "composing the entries in branch-point order gives
the identity".

The groups acting here are tiny (S3, S4, the 48-element block group in
S6 and its image in S8), so the kernel is memoized on image tuples:
``compose`` on the pair ``(p.images, q.images)``, ``cycles`` on
``(images, include_fixed)``, ``inverse`` on ``images``, ``orbits`` on
the sorted distinct generator images and the degree, and
``Permutation.identity`` on the degree.  ``is_identity`` is not
memoized: it compares ``images`` with those of the shared identity of
its degree.  Each memo is an ``lru_cache`` bounded at ``MEMO_SIZE``
entries, and a call that raises is not stored.  A result is still built
through ``Permutation``, so validation runs on every cache miss; a hit
returns the permutation validated when it was first built.  Images must
be of type ``int``, so equal-but-not-int tuples such as ``(2.0, 1.0)``
never share an entry.  ``induced_action`` is not memoized: it runs only
when a ``groups`` table is built and on a miss of
``covers._restriction``, and both of those results are kept.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

MEMO_SIZE = 4096


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1, .., n}`` stored as its tuple of images.

    ``images[i - 1]`` is the image of sheet ``i``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation needs degree at least 1")
        if any(type(img) is not int for img in self.images):
            raise ValueError(f"images must be integers: {self.images!r}")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        """The identity of ``degree``, one shared instance per degree."""
        return _identity(degree)

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles; unlisted sheets are fixed."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            if len(cycle) != len(set(cycle)):
                raise ValueError(f"repeated sheet inside cycle {tuple(cycle)!r}")
            for sheet in cycle:
                if not 1 <= sheet <= degree:
                    raise ValueError(f"sheet {sheet} outside 1..{degree}")
                if sheet in seen:
                    raise ValueError(f"sheet {sheet} appears in two cycles")
                seen.add(sheet)
            for pos, sheet in enumerate(cycle):
                images[sheet - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    def __call__(self, sheet: int) -> int:
        return self.images[sheet - 1]

    def is_identity(self) -> bool:
        return self.images == _identity(len(self.images)).images

    def inverse(self) -> "Permutation":
        return _inverse(self.images)

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, each cycle starting at its smallest sheet,
        cycles ordered by smallest sheet."""
        return _cycles(self.images, include_fixed)

    def cycle_through(self, sheet: int) -> tuple[int, ...]:
        """The cycle containing ``sheet``, rotated to start at its minimum."""
        cycle = [sheet]
        nxt = self(sheet)
        while nxt != sheet:
            cycle.append(nxt)
            nxt = self(nxt)
        pivot = cycle.index(min(cycle))
        return tuple(cycle[pivot:] + cycle[:pivot])

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed sheets, longest first."""
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"id[{self.degree}]"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _identity(degree: int) -> Permutation:
    return Permutation(tuple(range(1, degree + 1)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _inverse(images: tuple[int, ...]) -> Permutation:
    inverse = [0] * len(images)
    for i, img in enumerate(images, start=1):
        inverse[img - 1] = i
    return Permutation(tuple(inverse))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _cycles(images: tuple[int, ...], include_fixed: bool) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = images[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = images[nxt - 1]
        if len(cycle) > 1 or include_fixed:
            out.append(tuple(cycle))
    return tuple(out)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> Permutation:
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return Permutation(tuple(b[i - 1] for i in a))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``p`` first, then ``q``; memoized on ``(p.images, q.images)``."""
    return _compose(p.images, q.images)


def product(perms: Sequence[Permutation], degree: int | None = None) -> Permutation:
    """Ordered product, leftmost factor applied first."""
    if not perms:
        if degree is None:
            raise ValueError("empty product needs an explicit degree")
        return Permutation.identity(degree)
    acc = perms[0]
    for p in perms[1:]:
        acc = compose(acc, p)
    return acc


def conjugate(p: Permutation, rho: Permutation) -> Permutation:
    """``rho^-1 . p . rho`` in apply-first order: ``x -> rho(p(rho^-1(x)))``."""
    return compose(compose(rho.inverse(), p), rho)


def induced_action(perm: Permutation, points: tuple[tuple[int, ...], ...]) -> Permutation:
    """The permutation ``perm`` induces on ``points``, an ordered tuple of
    sheet sets numbered from 1.

    Raises ``ValueError`` when a point names a sheet outside
    ``1..perm.degree`` or when its image is not one of the points.
    """
    index = {frozenset(point): i for i, point in enumerate(points, start=1)}
    images = []
    for point in points:
        if not all(1 <= sheet <= perm.degree for sheet in point):
            raise ValueError(f"point {point!r} names a sheet outside 1..{perm.degree}")
        image = tuple(perm(sheet) for sheet in point)
        try:
            images.append(index[frozenset(image)])
        except KeyError:
            raise ValueError(f"point {point!r} maps to {image!r}, which is not a point") from None
    return Permutation(tuple(images))


def orbits(perms: Sequence[Permutation], degree: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by ``perms`` on the sheets, as
    sorted tuples ordered by their smallest element.  ``degree`` is
    required when ``perms`` is empty.

    Memoized on the sorted distinct image tuples and ``degree``, since
    repeated or reordered generators generate the same group; a miss
    runs a union-find over ``1..degree``, and a call that raises (mixed
    degrees, a mismatched or missing ``degree``) is not stored.
    """
    return _orbits(tuple(sorted({p.images for p in perms})), degree)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _orbits(
    generators: tuple[tuple[int, ...], ...], degree: int | None
) -> tuple[tuple[int, ...], ...]:
    if generators:
        n = len(generators[0])
        if any(len(g) != n for g in generators):
            raise ValueError("orbits requires permutations of equal degree")
        if degree is not None and degree != n:
            raise ValueError(f"degree {degree} does not match permutations of degree {n}")
    elif degree is None:
        raise ValueError("orbits of an empty set needs an explicit degree")
    else:
        n = degree

    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for images in generators:
        for i, image in enumerate(images, start=1):
            a, b = find(i), find(image)
            if a != b:
                parent[a] = b

    buckets: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        buckets.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(b)) for b in sorted(buckets.values(), key=min))
