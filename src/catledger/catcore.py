"""Finite presented categories, functors, natural transformations, FinSet limits.

Categories are *presented*: objects and generators are explicit, identities
implicit, composites generator paths; law checks test structure (endpoints,
composability) over generators and composable pairs, never weights.  A
category is held as parallel columns and a functor and a transformation as
lists of target ids in source-id order, after the attributed C-sets of
Patterson, Lynch & Fairbanks ("Categorical data structures for technical
computing", Compositionality 4, 2022).  A FinSet map holds its labels, and
`finset_pullback` and `finset_pushout` compute on them.  The
universal-property verifiers are exhaustive test-time searches.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Hashable, Iterator, Mapping, Sequence


class CategoryError(Exception):
    """Structural misuse of a category, functor or transformation."""


class DuplicateObjectError(CategoryError):
    pass


class DanglingEndpointError(CategoryError):
    pass


class FinSetError(ValueError):
    """Ill-formed finite-set map or mismatched (co)domains."""


class FiniteCategory:
    """A finitely presented category: named objects plus generator morphisms.

    `from_columns` and `extend` check their columns; the constructor takes
    columns its caller proved.  Parallel generators are allowed.  Ids start
    at 1 and are never reused: object i is `names[i - 1]`, and generator j
    runs from `src[j - 1]` to `dst[j - 1]` with `weight[j - 1]` and `label[j - 1]`.
    """

    __slots__ = ("name", "names", "src", "dst", "weight", "label")

    def __init__(
        self, name: str, names: list[str], src: list, dst: list, weight: list, label: list
    ) -> None:
        """The category of columns that pass `from_columns`' checks; it keeps the lists given."""
        self.name, self.names, self.src, self.dst, self.weight, self.label = (
            name, names, src, dst, weight, label
        )

    @classmethod
    def from_columns(
        cls, name: str, names: Sequence[str], src: Sequence, dst: Sequence, weight, label
    ) -> "FiniteCategory":
        """The category of these columns; DuplicateObjectError names the first repeated object."""
        if len(set(names)) != len(names):
            again = next(obj for i, obj in enumerate(names) if obj in names[:i])
            raise DuplicateObjectError(f"object {again!r} already exists in {name!r}")
        cat = cls(name, list(names), [], [], [], [])
        cat.extend(src, dst, weight, label)
        return cat

    @property
    def morphisms(self) -> range:
        """The generator ids."""
        return range(1, len(self.src) + 1)

    def extend(self, src: Sequence[int], dst: Sequence[int], weight, label) -> range:
        """Append generators given as columns, returning their fresh ids.

        CategoryError names the four lengths of unequal columns, and
        DanglingEndpointError the first endpoint that is not an object id,
        of type int and in 1..len(names); nothing is appended then.
        """
        if not len(src) == len(dst) == len(weight) == len(label):
            lengths = len(src), len(dst), len(weight), len(label)
            raise CategoryError("unequal columns: src %d, dst %d, weight %d, label %d" % lengths)
        n_objects = len(self.names)
        for end in itertools.chain(*zip(src, dst)):
            if type(end) is not int or not 1 <= end <= n_objects:  # as `_ids`: a bool is no id
                problem = f"morphism endpoint {end!r} does not exist in {self.name!r}"
                raise DanglingEndpointError(problem)
        first = len(self.src) + 1
        self.src.extend(src)
        self.dst.extend(dst)
        self.weight.extend(weight)
        self.label.extend(label)
        return range(first, len(self.src) + 1)

    def composable_pairs(self) -> list[tuple[int, int]]:
        """The generator id pairs (f, g) with dst(f) == src(g), by f then g."""
        by_src: dict[int, list[int]] = {}
        for g, s in enumerate(self.src, 1):
            by_src.setdefault(s, []).append(g)
        return [(f, g) for f, d in enumerate(self.dst, 1) for g in by_src.get(d, ())]


def _ids(entries: list[int | None], column: str) -> list[int | None]:
    """`entries`, unless one is neither None nor of type int: CategoryError names the first."""
    for i, e in enumerate(entries, 1):
        if e is not None and type(e) is not int:
            raise CategoryError(f"{column}: source id {i} maps to {e!r}, not an int id or None")
    return entries


class Functor:
    """A functor between presented categories, given on generators.

    `object_images[i - 1]` is the target object id of source object i and
    `morphism_images[j - 1]` that of generator j, None where there is none.
    Identities are preserved automatically (they are implicit), so the
    checkable laws are endpoint coherence and composability of images.
    CategoryError names an image neither None nor of type int; `proved` checks none.
    """

    __slots__ = ("source", "target", "object_images", "morphism_images")

    def __init__(
        self, source: FiniteCategory, target: FiniteCategory, object_images, morphism_images
    ) -> None:
        self.source, self.target = source, target
        self.object_images = _ids(object_images, "object_images")
        self.morphism_images = _ids(morphism_images, "morphism_images")

    @classmethod
    def proved(cls, source, target, object_images, morphism_images) -> "Functor":
        """The functor of image lists that pass the constructor's check; it keeps the lists."""
        functor = object.__new__(cls)
        functor.source, functor.target = source, target
        functor.object_images, functor.morphism_images = object_images, morphism_images
        return functor

    @staticmethod
    def identity(cat: FiniteCategory) -> "Functor":
        return Functor(cat, cat, list(range(1, len(cat.names) + 1)), list(cat.morphisms))


class NaturalTransformation:
    """A transformation between parallel functors, one component per source object.

    `components[i - 1]` is the id of a target morphism F(i) -> G(i), or None;
    CategoryError names a component of any other type; `proved` checks none.
    """

    __slots__ = ("F", "G", "components")

    def __init__(self, F: Functor, G: Functor, components: list[int | None]) -> None:
        self.F, self.G, self.components = F, G, _ids(components, "components")

    @classmethod
    def proved(cls, F: Functor, G: Functor, components: list) -> "NaturalTransformation":
        """The transformation of components that pass the constructor's check; it keeps the list."""
        eta = object.__new__(cls)
        eta.F, eta.G, eta.components = F, G, components
        return eta


class LawReport:
    """Outcome of a structural law check; failures name the offending pieces.

    A plain class, not a named tuple: a categorical period builds three, and
    a named tuple takes about 90 ns longer to build.
    """

    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list[str]) -> None:
        self.ok, self.failures = ok, failures

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LawReport:
            return NotImplemented
        return (self.ok, self.failures) == (other.ok, other.failures)

    def __repr__(self) -> str:
        return f"LawReport(ok={self.ok!r}, failures={self.failures!r})"


def _fit(images: list[int | None], count: int) -> list[int | None]:
    """`images` cut or padded with None to `count` entries, since zip drops what is missing."""
    return images if len(images) == count else [*images[:count], *[None] * (count - len(images))]


def check_functor_laws(functor: Functor) -> LawReport:
    """Check totality, endpoint coherence and composition preservation in one walk."""
    src_cat, dst_cat = functor.source, functor.target
    objects = _fit(functor.object_images, len(src_cat.names))
    images = _fit(functor.morphism_images, len(src_cat.src))
    starts, ends, n_objects, bound = dst_cat.src, dst_cat.dst, len(dst_cat.names), len(dst_cat.src)
    failures: list[str] = []
    walk = zip(itertools.count(1), src_cat.src, src_cat.dst, src_cat.label, images)
    for name, image in zip(src_cat.names, objects):
        if image is None:
            failures.append(f"object {name!r} has no image")
        elif not 1 <= image <= n_objects:
            failures.append(f"object {name!r} maps to missing id {image}")
    for mor_id, s, d, label, mapped in walk:
        if mapped is None:
            failures.append(f"morphism {mor_id} ({label or 'unlabeled'}) has no image")
        elif not 1 <= mapped <= bound:
            failures.append(f"morphism {mor_id} maps to missing id {mapped}")
        else:
            image_src, image_dst = starts[mapped - 1], ends[mapped - 1]
            if image_src != objects[s - 1]:
                failures.append(
                    f"morphism {mor_id}: image source {image_src} != F(src) {objects[s - 1]}"
                )
            if image_dst != objects[d - 1]:
                failures.append(
                    f"morphism {mor_id}: image target {image_dst} != F(dst) {objects[d - 1]}"
                )
    # the images of a composable pair whose two generators have coherent
    # endpoints meet at the image of the shared object, so a pair can fail
    # only when something above already has
    if failures:
        resolved = [j if j is not None and 1 <= j <= bound else None for j in images]
        for f, g in src_cat.composable_pairs():
            f_img, g_img = resolved[f - 1], resolved[g - 1]
            if f_img is not None and g_img is not None and ends[f_img - 1] != starts[g_img - 1]:
                failures.append(
                    f"composable pair ({f}, {g}) maps to non-composing pair ({f_img}, {g_img})"
                )
    return LawReport(not failures, failures)


def check_naturality(eta: NaturalTransformation) -> LawReport:
    """Check component typing and that every generator square commutes.

    The square of f: A -> B commutes when the paths (eta_A ; G(f)) and
    (F(f) ; eta_B) are composable and parallel; one walk over the columns.
    """
    F, G = eta.F, eta.G
    if F.source is not G.source or F.target is not G.target:
        return LawReport(False, ["functors are not parallel"])
    source, names, n, m = F.source, F.source.names, len(F.source.names), len(F.source.src)
    starts, ends, bound = F.target.src, F.target.dst, len(F.target.src)
    failures: list[str] = []
    comp_starts, comp_ends = [None], [None]  # eta_A runs comp_starts[A] -> comp_ends[A]
    walk = zip(names, _fit(eta.components, n), _fit(F.object_images, n), _fit(G.object_images, n))
    f_images, g_images = _fit(F.morphism_images, m), _fit(G.morphism_images, m)
    squares = zip(itertools.count(1), source.src, source.dst, f_images, g_images)
    for name, comp_id, f_obj, g_obj in walk:
        a = b = None
        if comp_id is None:
            failures.append(f"object {name!r} has no component")
        elif not 1 <= comp_id <= bound:
            failures.append(f"component at {name!r} is missing id {comp_id}")
        else:
            a, b = starts[comp_id - 1], ends[comp_id - 1]
            if a != f_obj or b != g_obj:
                failures.append(
                    f"component at {name!r} is mistyped: {a}->{b} is not F({name})->G({name})"
                )
        comp_starts.append(a)
        comp_ends.append(b)
    for mor_id, a, b, fi, gi in squares:
        a0, b0 = comp_starts[a], comp_starts[b]
        if a0 is None or b0 is None or fi is None or gi is None:
            failures.append(f"square for morphism {mor_id} is incomplete")
        elif not (1 <= fi <= bound and 1 <= gi <= bound):
            failures.append(f"square for morphism {mor_id} maps to a missing id")
        # left path: eta_A then G(f); right path: F(f) then eta_B
        elif comp_ends[a] != starts[gi - 1] or ends[fi - 1] != b0:
            failures.append(f"square for morphism {mor_id} does not compose")
        elif a0 != starts[fi - 1] or ends[gi - 1] != comp_ends[b]:
            failures.append(f"square for morphism {mor_id} is not parallel")
    return LawReport(not failures, failures)


# ---------------------------------------------------------------------------
# FinSet: maps between finite labeled sets, pullbacks and pushouts.
# ---------------------------------------------------------------------------


class FinSetMap:
    """A total function between finite labeled sets.

    `mapping` is a read-only view that holds exactly the domain's elements,
    in domain order, each sent to its label in the codomain.
    """

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: tuple, codomain: tuple, mapping: Mapping) -> None:
        dom = set(domain)
        if len(dom) != len(domain):
            raise FinSetError("domain has repeated elements")
        targets = set(codomain)
        if len(targets) != len(codomain):
            raise FinSetError("codomain has repeated elements")
        missing = dom.difference(mapping)
        if missing:
            raise FinSetError(f"mapping is not total: missing {sorted(map(str, missing))}")
        images = dict(zip(domain, map(mapping.__getitem__, domain)))
        outside = [x for x, y in images.items() if y not in targets]
        if outside:
            raise FinSetError(f"image of {outside[0]!r} lies outside the codomain")
        self.domain, self.codomain, self.mapping = domain, codomain, MappingProxyType(images)

    def __call__(self, x: Hashable) -> Hashable:
        return self.mapping[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSetMap):
            return NotImplemented
        same_sets = (self.domain, self.codomain) == (other.domain, other.codomain)
        return same_sets and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"FinSetMap({self.domain!r}, {self.codomain!r}, {dict(self.mapping)!r})"


def finset_pullback(
    f: FinSetMap, g: FinSetMap
) -> tuple[tuple[tuple[Hashable, Hashable], ...], FinSetMap, FinSetMap]:
    """Pullback of f: A -> C and g: B -> C.

    Returns the apex P = {(a, b) | f(a) = g(b)} ordered lexicographically by
    (A-index, B-index), plus the two projections.
    """
    if tuple(f.codomain) != tuple(g.codomain):
        raise FinSetError("pullback requires a shared codomain")
    b_images = tuple(g.mapping.items())
    apex = tuple([(a, b) for a, x in f.mapping.items() for b, y in b_images if x == y])
    p_a = FinSetMap(apex, f.domain, {p: p[0] for p in apex})
    p_b = FinSetMap(apex, g.domain, {p: p[1] for p in apex})
    return apex, p_a, p_b


def finset_pushout(
    f: FinSetMap, g: FinSetMap
) -> tuple[tuple[frozenset, ...], FinSetMap, FinSetMap]:
    """Pushout of f: C -> A and g: C -> B.

    Returns the apex P: the quotient of the tagged disjoint union A ⊔ B by
    the relation f(c) ~ g(c), as classes of ("A", a) / ("B", b) pairs
    ordered by first occurrence (A first, then B), plus both injections.
    """
    if tuple(f.domain) != tuple(g.domain):
        raise FinSetError("pushout requires a shared domain")
    tagged = [*(("A", a) for a in f.codomain), *(("B", b) for b in g.codomain)]
    block = {element: [element] for element in tagged}  # each element's class, merged in place
    for a, b in zip(f.mapping.values(), g.mapping.values()):
        kept, gone = block["A", a], block["B", b]
        if kept is not gone:
            kept += gone
            block.update(dict.fromkeys(gone, kept))
    firsts = {id(block[element]): block[element] for element in tagged}
    classes = tuple(map(frozenset, firsts.values()))
    class_of = {element: cls for cls in classes for element in cls}
    i_a = FinSetMap(f.codomain, classes, {a: class_of["A", a] for a in f.codomain})
    i_b = FinSetMap(g.codomain, classes, {b: class_of["B", b] for b in g.codomain})
    return classes, i_a, i_b


def enumerate_maps(domain: tuple, codomain: tuple) -> Iterator[dict[Hashable, Hashable]]:
    """All total maps domain -> codomain, in deterministic order."""
    for images in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, images))


# the largest test set D the universal-property searches try
MAX_TEST_SET = 2


def _cones(a: tuple, b: tuple, into: bool) -> Iterator[tuple]:
    """Each test set D of 1..MAX_TEST_SET elements with every pair of maps on it.

    The pairs are A -> D and B -> D when `into`, else D -> A and D -> B.
    """
    for size in range(1, MAX_TEST_SET + 1):
        dom = tuple(f"d{i}" for i in range(size))
        ends = ((a, dom), (b, dom)) if into else ((dom, a), (dom, b))
        for d_a, d_b in itertools.product(*(enumerate_maps(*end) for end in ends)):
            yield dom, d_a, d_b


def verify_pullback_universal(
    f: FinSetMap, g: FinSetMap, apex: tuple, p_a: FinSetMap, p_b: FinSetMap
) -> bool:
    """Exhaustively verify the pullback universal property on small sets.

    Checks f∘p_A = g∘p_B pointwise, then for every test cone (D, d_A, d_B)
    with f∘d_A = g∘d_B demands exactly one mediator u: D -> P.  In FinSet
    mediators are determined pointwise, so cones of size one already decide
    the property; larger sizes are sheer paranoia.
    """
    if any(f(p_a(p)) != g(p_b(p)) for p in apex):
        return False
    for dom, d_a, d_b in _cones(f.domain, g.domain, into=False):
        if all(f(d_a[d]) == g(d_b[d]) for d in dom) and 1 != sum(
            all(p_a(u[d]) == d_a[d] and p_b(u[d]) == d_b[d] for d in dom)
            for u in enumerate_maps(dom, apex)
        ):
            return False
    return True


def verify_pushout_universal(
    f: FinSetMap, g: FinSetMap, apex: tuple, i_a: FinSetMap, i_b: FinSetMap
) -> bool:
    """Exhaustively verify the pushout universal property on small sets.

    Dual to the pullback search: i_A∘f = i_B∘g must hold pointwise, and for
    every cocone (D, d_A, d_B) with d_A∘f = d_B∘g there must be exactly one
    u: P -> D with u∘i_A = d_A and u∘i_B = d_B.
    """
    if any(i_a(f(c)) != i_b(g(c)) for c in f.domain):
        return False
    for dom, d_a, d_b in _cones(f.codomain, g.codomain, into=True):
        if all(d_a[f(c)] == d_b[g(c)] for c in f.domain) and 1 != sum(
            all(u[i_a(a)] == d_a[a] for a in f.codomain)
            and all(u[i_b(b)] == d_b[b] for b in g.codomain)
            for u in enumerate_maps(apex, dom)
        ):
            return False
    return True
