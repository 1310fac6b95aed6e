"""Finite presented categories, functors, natural transformations, FinSet limits.

Categories here are *presented*: objects and generator morphisms are given
explicitly, identities are implicit (one per object), and composites are
generator paths.  Law checks therefore quantify over generators and
composable generator pairs only, and they check structure (endpoints,
composability), never the numeric weights carried by morphisms: weights
are bookkeeping data, not part of categorical identity.

The FinSet constructions (`finset_pullback`, `finset_pushout`) are ordinary
limits/colimits of finite labeled sets, with deterministic element order so
they can be asserted against verbatim.  Universal-property verification by
exhaustive mediating-map search is provided for small fixtures; it is a
test-time tool, never a runtime cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Sequence


class CategoryError(Exception):
    """Structural misuse of a category, functor or transformation."""


class DuplicateObjectError(CategoryError):
    pass


class ObjectNotFoundError(CategoryError):
    pass


class DanglingEndpointError(CategoryError):
    pass


class FinSetError(ValueError):
    """Ill-formed finite-set map or mismatched (co)domains."""


@dataclass(slots=True)
class CatObject:
    id: int
    name: str


@dataclass(slots=True)
class Morphism:
    id: int
    src: int
    dst: int
    label: str = ""
    weight: float = 0.0


class FiniteCategory:
    """A finitely presented category: named objects plus generator morphisms.

    Parallel generators are allowed (the underlying graph is a multigraph).
    Object and morphism ids start at 1 and are never reused.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._objects: list[CatObject] = []
        self._morphisms: list[Morphism] = []
        self._by_name: dict[str, int] = {}

    # -- objects ------------------------------------------------------

    @classmethod
    def from_lists(cls, name: str, names: Sequence[str], morphisms: Sequence) -> "FiniteCategory":
        """A category of named objects and (src, dst, weight, label) generators.

        Ids follow list order; the names and endpoints are checked once, and
        the first fault raises what `add_object` or `add_morphism` would.
        """
        cat = cls(name)
        cat._by_name = dict(zip(names, range(1, len(names) + 1)))
        if len(cat._by_name) != len(names):
            again = next(obj for i, obj in enumerate(names) if obj in names[:i])
            raise DuplicateObjectError(f"object {again!r} already exists in {name!r}")
        srcs, dsts, weights, labels = tuple(zip(*morphisms)) or ((), (), (), ())
        if srcs and not 1 <= min(*srcs, *dsts) <= max(*srcs, *dsts) <= len(names):
            bad = next(end for mor in morphisms for end in mor[:2] if not 1 <= end <= len(names))
            raise DanglingEndpointError(f"morphism endpoint {bad} does not exist in {name!r}")
        cat._objects = list(map(CatObject, range(1, len(names) + 1), names))
        cat._morphisms = list(map(Morphism, range(1, len(srcs) + 1), srcs, dsts, labels, weights))
        return cat

    @property
    def objects(self) -> tuple[CatObject, ...]:
        return tuple(self._objects)

    @property
    def morphisms(self) -> tuple[Morphism, ...]:
        return tuple(self._morphisms)

    def add_object(self, name: str) -> int:
        """Add a named object, returning its fresh id.

        Raises DuplicateObjectError if the name is already present.
        """
        if name in self._by_name:
            raise DuplicateObjectError(f"object {name!r} already exists in {self.name!r}")
        obj_id = len(self._objects) + 1
        self._objects.append(CatObject(obj_id, name))
        self._by_name[name] = obj_id
        return obj_id

    def get_object(self, name: str) -> int:
        """Return the id of the object called `name`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ObjectNotFoundError(f"no object {name!r} in {self.name!r}") from None

    # -- morphisms ----------------------------------------------------

    def add_morphism(self, src: int, dst: int, weight: float = 0.0, label: str = "") -> int:
        """Append a generator morphism src -> dst, returning its fresh id."""
        n_objects = len(self._objects)
        for endpoint in (src, dst):
            if not 1 <= endpoint <= n_objects:
                raise DanglingEndpointError(
                    f"morphism endpoint {endpoint} does not exist in {self.name!r}"
                )
        mor_id = len(self._morphisms) + 1
        self._morphisms.append(Morphism(mor_id, src, dst, label, weight))
        return mor_id

    def morphism_by_id(self, mor_id: int) -> Morphism:
        mor = self.find_morphism(mor_id)
        if mor is None:
            raise ObjectNotFoundError(f"no morphism id {mor_id} in {self.name!r}")
        return mor

    def find_morphism(self, mor_id: int) -> Morphism | None:
        """The generator with id `mor_id`, or None when there is none."""
        return self._morphisms[mor_id - 1] if 1 <= mor_id <= len(self._morphisms) else None

    def composable_pairs(self) -> Iterator[tuple[Morphism, Morphism]]:
        """All generator pairs (f, g) with f followed by g, i.e. dst(f) == src(g)."""
        by_src: dict[int, list[Morphism]] = {}
        for m in self._morphisms:
            by_src.setdefault(m.src, []).append(m)
        for f in self._morphisms:
            for g in by_src.get(f.dst, ()):
                yield f, g


@dataclass
class Functor:
    """A functor between presented categories, given on generators.

    `object_map` sends source object ids to target object ids and must be
    total; `morphism_map` sends source generator ids to target generator
    ids.  Identities are preserved automatically (they are implicit), so
    the checkable laws are endpoint coherence and composability of images.
    """

    source: FiniteCategory
    target: FiniteCategory
    object_map: dict[int, int] = field(default_factory=dict)
    morphism_map: dict[int, int] = field(default_factory=dict)

    @staticmethod
    def identity(cat: FiniteCategory) -> "Functor":
        return Functor(
            source=cat,
            target=cat,
            object_map={o.id: o.id for o in cat.objects},
            morphism_map={m.id: m.id for m in cat.morphisms},
        )


@dataclass
class NaturalTransformation:
    """A transformation between parallel functors, one component per source object.

    `components[A]` is the id of a target morphism F(A) -> G(A).
    """

    F: Functor
    G: Functor
    components: dict[int, int] = field(default_factory=dict)


@dataclass
class LawReport:
    """Outcome of a structural law check; failures name the offending pieces."""

    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_functor_laws(functor: Functor) -> LawReport:
    """Check totality, endpoint coherence and composition preservation.

    Identity preservation is implied by object totality for presented
    categories (identities are implicit and map to identities), so the
    report concentrates on the failure modes that can actually occur:
    unmapped generators, incoherent endpoints, and composable generator
    pairs whose images fail to compose.  Each generator's image is resolved
    once; a pair with an unresolved image is already reported and skipped.
    """
    src_cat, dst_cat = functor.source, functor.target
    object_map, morphism_map = functor.object_map, functor.morphism_map
    failures: list[str] = []
    # walk the lists: the `objects`/`morphisms` properties copy them
    dst_objects = len(dst_cat._objects)
    resolve = dst_cat.find_morphism

    for obj in src_cat._objects:
        image = object_map.get(obj.id)
        if image is None:
            failures.append(f"object {obj.name!r} has no image")
        elif not 1 <= image <= dst_objects:
            failures.append(f"object {obj.name!r} maps to missing id {image}")

    images: dict[int, Morphism] = {}
    for mor in src_cat._morphisms:
        mapped = morphism_map.get(mor.id)
        if mapped is None:
            failures.append(f"morphism {mor.id} ({mor.label or 'unlabeled'}) has no image")
            continue
        img = resolve(mapped)
        if img is None:
            failures.append(f"morphism {mor.id} maps to missing id {mapped}")
            continue
        images[mor.id] = img
        if img.src != object_map.get(mor.src):
            failures.append(
                f"morphism {mor.id}: image source {img.src} != F(src) "
                f"{object_map.get(mor.src)}"
            )
        if img.dst != object_map.get(mor.dst):
            failures.append(
                f"morphism {mor.id}: image target {img.dst} != F(dst) "
                f"{object_map.get(mor.dst)}"
            )

    for f, g in src_cat.composable_pairs():
        f_img = images.get(f.id)
        g_img = images.get(g.id)
        if f_img is None or g_img is None:
            continue  # already reported above
        if f_img.dst != g_img.src:
            failures.append(
                f"composable pair ({f.id}, {g.id}) maps to non-composing pair "
                f"({f_img.id}, {g_img.id})"
            )

    return LawReport(ok=not failures, failures=failures)


def check_naturality(eta: NaturalTransformation) -> LawReport:
    """Check component typing and that every generator square commutes.

    In a presented category the two composites around the square for a
    generator f: A -> B are the paths (eta_A ; G(f)) and (F(f) ; eta_B);
    the square commutes structurally when both paths are composable and
    parallel.  Weights are ignored, as everywhere in the law checks.  An id
    outside the target category is reported as a failure.
    """
    F, G = eta.F, eta.G
    failures: list[str] = []
    if F.source is not G.source or F.target is not G.target:
        return LawReport(False, ["functors are not parallel"])
    src_cat = F.source
    resolve = F.target.find_morphism
    f_objects, g_objects = F.object_map, G.object_map
    f_morphisms, g_morphisms = F.morphism_map, G.morphism_map

    comps: dict[int, Morphism] = {}
    for obj in src_cat._objects:
        comp_id = eta.components.get(obj.id)
        if comp_id is None:
            failures.append(f"object {obj.name!r} has no component")
            continue
        comp = resolve(comp_id)
        if comp is None:
            failures.append(f"component at {obj.name!r} is missing id {comp_id}")
            continue
        comps[obj.id] = comp
        if comp.src != f_objects.get(obj.id) or comp.dst != g_objects.get(obj.id):
            failures.append(
                f"component at {obj.name!r} is mistyped: "
                f"{comp.src}->{comp.dst} is not F({obj.name})->G({obj.name})"
            )

    for mor in src_cat._morphisms:
        eta_a = comps.get(mor.src)
        eta_b = comps.get(mor.dst)
        fi = f_morphisms.get(mor.id)
        gi = g_morphisms.get(mor.id)
        if eta_a is None or eta_b is None or fi is None or gi is None:
            failures.append(f"square for morphism {mor.id} is incomplete")
            continue
        f_img = resolve(fi)
        g_img = resolve(gi)
        if f_img is None or g_img is None:
            failures.append(f"square for morphism {mor.id} maps to a missing id")
            continue
        # left path: eta_A then G(f); right path: F(f) then eta_B
        if eta_a.dst != g_img.src or f_img.dst != eta_b.src:
            failures.append(f"square for morphism {mor.id} does not compose")
            continue
        if eta_a.src != f_img.src or g_img.dst != eta_b.dst:
            failures.append(f"square for morphism {mor.id} is not parallel")

    return LawReport(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# FinSet: maps between finite labeled sets, pullbacks and pushouts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FinSetMap:
    """A total function between finite labeled sets.

    Element order of `domain` and `codomain` is meaningful: it makes the
    derived constructions deterministic.
    """

    domain: tuple[Hashable, ...]
    codomain: tuple[Hashable, ...]
    mapping: Mapping[Hashable, Hashable]

    def __post_init__(self) -> None:
        domain, mapping = self.domain, self.mapping
        dom, cod = set(domain), set(self.codomain)
        if len(dom) != len(domain):
            raise FinSetError("domain has repeated elements")
        if len(cod) != len(self.codomain):
            raise FinSetError("codomain has repeated elements")
        missing = dom.difference(mapping)
        if missing:
            raise FinSetError(f"mapping is not total: missing {sorted(map(str, missing))}")
        if not cod.issuperset(map(mapping.__getitem__, domain)):
            # name the first element, in domain order, whose image is outside
            for x in domain:
                if mapping[x] not in cod:
                    raise FinSetError(f"image of {x!r} lies outside the codomain")

    def __call__(self, x: Hashable) -> Hashable:
        return self.mapping[x]


def finset_pullback(
    f: FinSetMap, g: FinSetMap
) -> tuple[tuple[tuple[Hashable, Hashable], ...], FinSetMap, FinSetMap]:
    """Pullback of f: A -> C and g: B -> C.

    Returns the apex P = {(a, b) | f(a) = g(b)} ordered lexicographically by
    (A-index, B-index), plus the two projections.
    """
    if tuple(f.codomain) != tuple(g.codomain):
        raise FinSetError("pullback requires a shared codomain")
    f_map, g_map = f.mapping, g.mapping
    g_images = [(b, g_map[b]) for b in g.domain]
    apex = tuple((a, b) for a in f.domain for b, image in g_images if f_map[a] == image)
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

    # union-find with path halving over the positions of A ⊔ B, A's first
    a_elems, b_elems = f.codomain, g.codomain
    offset = len(a_elems)
    a_pos = dict(zip(a_elems, range(offset)))
    b_pos = dict(zip(b_elems, range(offset, offset + len(b_elems))))
    parent = list(range(offset + len(b_elems)))

    f_map, g_map = f.mapping, g.mapping
    for c in f.domain:
        x, y = a_pos[f_map[c]], b_pos[g_map[c]]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x

    # each position's root, and the classes in order of first occurrence
    roots: list[int] = []
    groups: dict[int, list[tuple]] = {}
    tagged = [*zip(itertools.repeat("A"), a_elems), *zip(itertools.repeat("B"), b_elems)]
    for x, element in enumerate(tagged):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        roots.append(x)
        groups.setdefault(x, []).append(element)

    classes = tuple(map(frozenset, groups.values()))
    class_of_root = dict(zip(groups, classes))
    images = [class_of_root[root] for root in roots]
    i_a = FinSetMap(a_elems, classes, dict(zip(a_elems, images)))
    i_b = FinSetMap(b_elems, classes, dict(zip(b_elems, images[offset:])))
    return classes, i_a, i_b


def enumerate_maps(
    domain: tuple[Hashable, ...], codomain: tuple[Hashable, ...]
) -> Iterator[dict[Hashable, Hashable]]:
    """All total maps domain -> codomain, in deterministic order."""
    if not domain:
        yield {}
        return
    for images in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, images))


def _cone_domains(max_size: int) -> Iterator[tuple[str, ...]]:
    for size in range(1, max_size + 1):
        yield tuple(f"d{i}" for i in range(size))


def verify_pullback_universal(
    f: FinSetMap,
    g: FinSetMap,
    apex: tuple,
    p_a: FinSetMap,
    p_b: FinSetMap,
    max_cone_size: int = 2,
) -> bool:
    """Exhaustively verify the pullback universal property on small sets.

    Checks f∘p_A = g∘p_B pointwise, then for every test cone (D, d_A, d_B)
    with f∘d_A = g∘d_B searches all maps u: D -> P and demands exactly one
    mediator.  In FinSet, mediators are determined pointwise, so cones of
    size one already decide the property; larger sizes are sheer paranoia.
    """
    for p in apex:
        if f(p_a(p)) != g(p_b(p)):
            return False
    for dom in _cone_domains(max_cone_size):
        for d_a_map in enumerate_maps(dom, f.domain):
            for d_b_map in enumerate_maps(dom, g.domain):
                if any(f(d_a_map[d]) != g(d_b_map[d]) for d in dom):
                    continue
                mediators = 0
                for u in enumerate_maps(dom, apex):
                    if all(p_a(u[d]) == d_a_map[d] and p_b(u[d]) == d_b_map[d] for d in dom):
                        mediators += 1
                if mediators != 1:
                    return False
    return True


def verify_pushout_universal(
    f: FinSetMap,
    g: FinSetMap,
    apex: tuple,
    i_a: FinSetMap,
    i_b: FinSetMap,
    max_cocone_size: int = 2,
) -> bool:
    """Exhaustively verify the pushout universal property on small sets.

    Dual to the pullback search: i_A∘f = i_B∘g must hold pointwise, and for
    every cocone (D, d_A, d_B) with d_A∘f = d_B∘g there must be exactly one
    u: P -> D with u∘i_A = d_A and u∘i_B = d_B.
    """
    for c in f.domain:
        if i_a(f(c)) != i_b(g(c)):
            return False
    for dom in _cone_domains(max_cocone_size):
        for d_a_map in enumerate_maps(f.codomain, dom):
            for d_b_map in enumerate_maps(g.codomain, dom):
                if any(d_a_map[f(c)] != d_b_map[g(c)] for c in f.domain):
                    continue
                mediators = 0
                for u in enumerate_maps(apex, dom):
                    if all(u[i_a(a)] == d_a_map[a] for a in f.codomain) and all(
                        u[i_b(b)] == d_b_map[b] for b in g.codomain
                    ):
                        mediators += 1
                if mediators != 1:
                    return False
    return True
