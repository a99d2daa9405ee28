"""Branched covers of the line as monodromy data.

A cover of degree ``n`` branched over finitely many labelled points is
recorded as one permutation of the sheets ``1..n`` per branch label.
Labels are opaque strings; their order is part of the data, and the
ordered product of the monodromy entries (leftmost applied first) must
be the identity.  Entries equal to the identity are forbidden: a label
whose monodromy would be trivial is simply not a branch label.

Nodal curves are modelled by a smooth cover (the normalization) plus
side-band node markers: unordered pairs of fibre points that are glued.
Nodes are never encoded into the permutations themselves.

A cover's orbits, components and label -> entry dict are
``functools.cached_property`` values, computed on first read; they are
not fields, so equality and hashing ignore them.
``total_ramification`` sums a per-entry ramification memoized, like
the permutation kernel, on the entry's image tuple and bounded at
``MEMO_SIZE``; ``perm_at`` returns the kernel's shared identity for a
label the cover is not branched over.

Every cover built from outside data (a decoded document or a sampler's
candidate) runs every check in ``__post_init__``.
The one exception is ``BranchedCover._derived``, the trusted
constructor for a homomorphism image of a cover that was itself
checked: entries phi(s) of the parent's entries s under a homomorphism
phi into the symmetric group of ``degree``, in the parent's label
order, identity images dropped.  Then every check holds by
construction, the product relation because
phi(s1)...phi(sn) = phi(s1...sn) = phi(1) = 1.  Its callers are
``groups.derive``, whose columns are checked as homomorphisms as they
are built, and ``BranchedCover.components``, since restricting the
monodromy to an invariant orbit is one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .permutation import MEMO_SIZE, Permutation, induced_action, orbits, product


@dataclass(frozen=True)
class BranchedCover:
    degree: int
    labels: tuple[str, ...]
    monodromy: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("cover degree must be a positive integer")
        if len(self.labels) != len(self.monodromy):
            raise ValueError("labels and monodromy entries must correspond one to one")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"branch labels must be distinct: {self.labels!r}")
        for label, perm in zip(self.labels, self.monodromy):
            if perm.degree != self.degree:
                raise ValueError(
                    f"monodromy at {label!r} has degree {perm.degree}, cover has degree {self.degree}"
                )
            if perm.is_identity():
                raise ValueError(f"identity monodromy at {label!r} is forbidden; drop the label")
        if self.monodromy and not product(self.monodromy).is_identity():
            raise ValueError("ordered product of monodromy entries is not the identity")

    @classmethod
    def _derived(
        cls, degree: int, labels: tuple[str, ...], monodromy: tuple[Permutation, ...]
    ) -> "BranchedCover":
        """The trusted constructor: a homomorphism image of a checked
        cover, built without ``__post_init__`` (see the module docstring
        for the contract every caller keeps)."""
        cover = cls.__new__(cls)
        cover.__dict__.update(degree=degree, labels=labels, monodromy=monodromy)
        return cover

    @classmethod
    def from_pairs(cls, degree: int, entries: Iterable[tuple[str, Permutation]]) -> "BranchedCover":
        pairs = tuple(entries)
        return cls(degree, tuple(l for l, _ in pairs), tuple(p for _, p in pairs))

    def perm_at(self, label: str) -> Permutation:
        """Monodromy at ``label``; identity if the label is not a branch label."""
        perm = self._by_label.get(label)
        return Permutation.identity(self.degree) if perm is None else perm

    @functools.cached_property
    def _by_label(self) -> dict[str, Permutation]:
        return dict(zip(self.labels, self.monodromy))

    def entries(self) -> tuple[tuple[str, Permutation], ...]:
        return tuple(zip(self.labels, self.monodromy))

    def total_ramification(self) -> int:
        return sum(map(_ramification, [p.images for p in self.monodromy]))

    @functools.cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the monodromy group on the sheets."""
        return orbits(self.monodromy, self.degree)

    @functools.cached_property
    def components(self) -> tuple["Component", ...]:
        """Connected components, ordered by their smallest parent sheet.

        A component's entries are the parent's restricted to one orbit
        and renumbered along it (``_restriction``, memoized on the
        entry's image tuple and the orbit, like the kernel, and bounded
        at ``MEMO_SIZE``), with trivial restrictions dropped; a
        connected cover's one component is a copy, so no cover holds
        itself.
        """
        return tuple(_restrict(self, orbit) for orbit in self.orbits)

    def is_connected(self) -> bool:
        return len(self.orbits) == 1


@functools.lru_cache(maxsize=MEMO_SIZE)
def _ramification(images: tuple[int, ...]) -> int:
    """Sheets minus cycles of one monodromy entry."""
    return len(images) - len(Permutation(images).cycles(include_fixed=True))


@dataclass(frozen=True)
class CoverPoint:
    """A point of a cover lying over a branch label.

    Fibre points over a label correspond to cycles of the monodromy
    there; the cycle is stored rotated to start at its smallest sheet.
    A label the cover is not branched over is allowed: its fibre points
    are the singleton cycles of the implicit identity.
    """

    label: str
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("a cover point needs a non-empty cycle")
        if len(set(self.cycle)) != len(self.cycle):
            raise ValueError(f"repeated sheet in cycle {self.cycle!r}")
        pivot = self.cycle.index(min(self.cycle))
        object.__setattr__(self, "cycle", tuple(self.cycle[pivot:]) + tuple(self.cycle[:pivot]))

    @property
    def ramification_index(self) -> int:
        return len(self.cycle)

    def mapped(self, rho: Permutation) -> "CoverPoint":
        return CoverPoint(self.label, tuple(rho(s) for s in self.cycle))


def label_cycles(cover: BranchedCover, label: str) -> tuple[tuple[int, ...], ...]:
    """All cycles over ``label`` including fixed sheets, ordered by smallest
    sheet.  For a label the cover is not branched over this is the full
    list of singletons."""
    return cover.perm_at(label).cycles(include_fixed=True)


def genus(cover: BranchedCover) -> int:
    """Genus of a connected smooth cover, by Riemann-Hurwitz over the line."""
    if not cover.is_connected():
        raise ValueError("genus of a disconnected cover is undefined; split into components")
    ram = cover.total_ramification()
    if ram % 2 != 0:
        raise ValueError(f"odd total ramification degree {ram}: corrupted monodromy data")
    return 1 - cover.degree + ram // 2


@dataclass(frozen=True)
class Component:
    """A connected component of a cover.

    ``sheets[i]`` is the parent sheet behind sheet ``i + 1`` of the
    component cover; labels whose restricted monodromy is trivial are
    dropped.
    """

    cover: BranchedCover
    sheets: tuple[int, ...]

    def to_parent(self, sheet: int) -> int:
        return self.sheets[sheet - 1]

    def from_parent(self, parent_sheet: int) -> int:
        return self.sheets.index(parent_sheet) + 1


def _restrict(cover: BranchedCover, orbit: tuple[int, ...]) -> Component:
    if len(orbit) == cover.degree:
        return Component(BranchedCover._derived(cover.degree, cover.labels, cover.monodromy), orbit)
    labels, entries = [], []
    for label, perm in zip(cover.labels, cover.monodromy):
        image = _restriction(perm.images, orbit)
        if image is not None:
            labels.append(label)
            entries.append(image)
    return Component(BranchedCover._derived(len(orbit), tuple(labels), tuple(entries)), orbit)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _restriction(images: tuple[int, ...], orbit: tuple[int, ...]) -> Permutation | None:
    """The entry with ``images`` restricted to ``orbit`` and renumbered
    along it, through ``induced_action`` on the orbit's singletons;
    ``None`` when that restriction is the identity."""
    image = induced_action(Permutation(images), tuple((sheet,) for sheet in orbit))
    return None if image.is_identity() else image


@dataclass(frozen=True)
class NodalCoverModel:
    """A nodal curve: smooth normalization plus node markers.

    Each node is an unordered pair of distinct fibre points over one
    common branch label; a fibre point belongs to at most one node.
    """

    normalization: BranchedCover
    nodes: tuple[tuple[CoverPoint, CoverPoint], ...] = ()

    def __post_init__(self) -> None:
        seen: set[CoverPoint] = set()
        for a, b in self.nodes:
            if a.label != b.label:
                raise ValueError(f"node endpoints over different labels: {a.label!r}, {b.label!r}")
            if a == b:
                raise ValueError(f"node glues a point to itself: {a!r}")
            for p in (a, b):
                if p.cycle not in label_cycles(self.normalization, p.label):
                    raise ValueError(f"{p!r} is not a fibre point of the normalization")
                if p in seen:
                    raise ValueError(f"{p!r} appears in two nodes")
                seen.add(p)

    def node_set(self) -> frozenset[frozenset[CoverPoint]]:
        return frozenset(frozenset(pair) for pair in self.nodes)


def arithmetic_genus(model: NodalCoverModel) -> int:
    """Arithmetic genus of the glued curve: component genera plus nodes
    minus components plus one."""
    parts = model.normalization.components
    return sum(genus(c.cover) for c in parts) + len(model.nodes) - len(parts) + 1


def iter_isomorphisms(first: BranchedCover, second: BranchedCover) -> Iterator[Permutation]:
    """All sheet relabelings ``rho`` with ``conjugate(m, rho)`` matching the
    second cover's monodromy entry by entry, in lexicographic order of
    their image tuples.

    Covers must share degree and the identical ordered label list; a
    mismatch there is a usage error, not a negative answer.
    """
    if first.degree != second.degree:
        raise ValueError(f"degree mismatch: {first.degree} vs {second.degree}")
    if first.labels != second.labels:
        raise ValueError(f"branch labels differ: {first.labels!r} vs {second.labels!r}")

    n = first.degree
    pairs = [(s.images, t.images) for s, t in zip(first.monodromy, second.monodromy)]
    # a relabeling is fixed on each orbit by its least sheet's image:
    # one map per orbit and target, then one disjoint pick per orbit in turn
    choices = []
    for orbit in first.orbits:
        found = (_propagate(pairs, orbit[0], t) for t in range(1, n + 1))
        # each map with its images as the bits 1 << image (it is one-to-one)
        choices.append([(m, sum(1 << i for i in m.values())) for m in found if m is not None])
    images = [0] * n  # each orbit's current pick, written over its sheets
    levels = [(iter(choices[0]), 0)]  # per orbit: its maps left, the image bits used before it
    while levels:
        maps, used = levels[-1]
        pick = next(maps, None)
        if pick is None:
            levels.pop()
            continue
        mapping, targets = pick
        if not targets & used:
            for sheet, image in mapping.items():
                images[sheet - 1] = image
            if len(levels) == len(choices):
                yield Permutation(tuple(images))
            else:
                levels.append((iter(choices[len(levels)]), used | targets))


def _propagate(pairs: list, start: int, target: int) -> dict[int, int] | None:
    """The map on ``start``'s orbit sending ``start`` to ``target`` and each
    first entry's image tuple onto its pair's, if one exists and is
    one-to-one; else ``None``."""
    mapping = {start: target}
    queue = [start]
    for x in queue:
        for sigma, tau in pairs:
            image, want = sigma[x - 1], tau[mapping[x] - 1]
            if image not in mapping:
                mapping[image] = want
                queue.append(image)
            elif mapping[image] != want:
                return None
    return mapping if len(set(mapping.values())) == len(mapping) else None


def nodal_isomorphisms(first: NodalCoverModel, second: NodalCoverModel) -> Iterator[Permutation]:
    """All isomorphisms of normalizations carrying the node markers of
    the first model onto those of the second."""
    want = second.node_set()
    for rho in iter_isomorphisms(first.normalization, second.normalization):
        if frozenset(frozenset(p.mapped(rho) for p in pair) for pair in first.nodes) == want:
            yield rho
