"""Law checks and universal constructions on small fixtures."""

from __future__ import annotations

import random
from typing import Hashable, Mapping, NamedTuple

import pytest

from catledger import catcore
from catledger.catcore import (
    CategoryError,
    DanglingEndpointError,
    DuplicateObjectError,
    FiniteCategory,
    FinSetError,
    FinSetMap,
    Functor,
    LawReport,
    NaturalTransformation,
    check_functor_laws,
    check_naturality,
    enumerate_maps,
    finset_pullback,
    finset_pushout,
    verify_pullback_universal,
    verify_pushout_universal,
)

ACCOUNT_NAMES_20 = [f"Acct{i}" for i in range(20)]


def transpose(morphisms) -> tuple[tuple, ...]:
    """The src, dst, weight and label columns of (src, dst, weight, label) generators."""
    return tuple(zip(*morphisms)) or ((),) * 4


def triangle() -> FiniteCategory:
    # a: X->Y, b: Y->Z, c: X->Z
    return FiniteCategory.from_columns(
        "triangle", ("X", "Y", "Z"), (1, 2, 1), (2, 3, 3), (0.0,) * 3, ("a", "b", "c")
    )


def objects_only(name: str, names) -> FiniteCategory:
    return FiniteCategory.from_columns(name, names, (), (), (), ())


class TestObjects:
    def test_first_object_gets_id_1(self):
        cat = objects_only("accounts", ["AccLabBank"])
        assert cat.names == ["AccLabBank"]
        assert cat.extend((1,), (1,), (0.0,), ("",)) == range(1, 2)
        with pytest.raises(DanglingEndpointError):
            cat.extend((2,), (1,), (0.0,), ("",))

    @pytest.mark.parametrize("bad", [1.5, 2.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_a_non_int_endpoint_is_refused_by_name_and_nothing_is_appended(self, bad, end):
        # 1.5 lies between the least and the greatest id, and 2.0 equals one
        cat = objects_only("pair", ["A", "B"])
        cat.extend((1,), (2,), (0.0,), ("a",))
        src, dst = [1, 1], [2, 1]
        (src if end == "src" else dst)[1] = bad
        with pytest.raises(DanglingEndpointError) as err:
            cat.extend(src, dst, [0.0, 0.0], ["b", "x"])
        assert str(err.value) == f"morphism endpoint {bad} does not exist in 'pair'"
        with pytest.raises(DanglingEndpointError):
            FiniteCategory.from_columns("pair", "AB", src, dst, (0.0, 0.0), ("b", "x"))
        assert (cat.src, cat.dst, cat.weight, cat.label) == ([1], [2], [0.0], ["a"])
        assert check_functor_laws(Functor.identity(cat)).ok

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateObjectError):
            objects_only("", ["AccLabBank", "AccLabBank"])

    def test_twenty_objects(self):
        cat = objects_only("", ACCOUNT_NAMES_20)
        assert cat.names == ACCOUNT_NAMES_20

    def test_get_preserves_fresh_id(self):
        cat = objects_only("", ["first", "second"])
        assert cat.names.index("second") + 1 == 2


class TestMorphisms:
    def test_weighted_morphism(self):
        cat = FiniteCategory.from_columns("flows", ["Lab", "Bank"], (1,), (2,), (1.0,), ("",))
        (mid,) = cat.extend((1,), (2,), (52.0,), ("",))
        assert cat.name == "flows" and mid == 2  # extend numbers on from the built columns
        assert cat.weight[mid - 1] == 52.0

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpointError):
            FiniteCategory.from_columns("", ["Lab"], (1,), (99,), (0.0,), ("",))

    def test_parallel_morphisms_get_distinct_ids(self):
        cat = FiniteCategory.from_columns("", ["A", "B"], (1, 1), (2, 2), (1.0, 2.0), ("", ""))
        first, second = cat.morphisms
        assert first != second


class TestFromColumns:
    def test_empty_columns(self):
        cat = objects_only("empty", [])
        assert cat.names == [] and list(cat.morphisms) == []
        assert cat.extend((), (), (), ()) == range(1, 1)

    @pytest.mark.parametrize(
        "names, morphisms, error, bad",
        [
            ("ABA", [], DuplicateObjectError, "'A'"),
            ("ABBA", [(1, 9, 0.0, "")], DuplicateObjectError, "'B'"),
            ("AB", [(1, 2, 0.0, "a"), (2, 3, 0.0, "b")], DanglingEndpointError, 3),
            ("AB", [(1, 2, 0.0, "a"), (0, 3, 0.0, "b")], DanglingEndpointError, 0),
            ("A", [(1, 1, 0.0, "a"), (1, -1, 0.0, "b"), (5, 1, 0.0, "c")],
             DanglingEndpointError, -1),
            ("", [(1, 1, 0.0, "a")], DanglingEndpointError, 1),
            ("AB", [(1.5, 2, 0.0, "x")], DanglingEndpointError, 1.5),
            ("AB", [(1, 2, 0.0, "a"), (2, 2.0, 0.0, "b"), (1, 0, 0.0, "c")],
             DanglingEndpointError, 2.0),
            # an endpoint of another type is named, not a TypeError from summing it
            ("AB", [(1, 2, 0.0, "a"), ("B", 1, 0.0, "b")], DanglingEndpointError, "'B'"),
            ("AB", [(1, None, 0.0, "a"), (1, 2, 0.0, "b")], DanglingEndpointError, None),
            ("AB", [(1, 2, 0.0, "a"), (2, True, 0.0, "b")], DanglingEndpointError, True),
        ],
    )
    def test_raises_the_first_error_in_column_order(self, names, morphisms, error, bad):
        message = {
            DuplicateObjectError: f"object {bad} already exists in 'batch'",
            DanglingEndpointError: f"morphism endpoint {bad} does not exist in 'batch'",
        }[error]
        with pytest.raises(error) as err:
            FiniteCategory.from_columns("batch", tuple(names), *transpose(morphisms))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "columns, lengths",
        [
            (((1, 2), (2,), (0.0,), ("a",)), "src 2, dst 1, weight 1, label 1"),
            (((), (5,), (), ()), "src 0, dst 1, weight 0, label 0"),
        ],
    )
    def test_extend_refuses_unequal_columns(self, columns, lengths):
        cat = FiniteCategory.from_columns("c", ("X", "Y"), (1,), (2,), (0.5,), ("x",))
        before = [list(column) for column in (cat.src, cat.dst, cat.weight, cat.label)]
        with pytest.raises(CategoryError) as err:
            cat.extend(*columns)
        assert type(err.value) is CategoryError
        assert str(err.value) == f"unequal columns: {lengths}"
        assert [cat.src, cat.dst, cat.weight, cat.label] == before

    def test_from_columns_refuses_unequal_columns(self):
        with pytest.raises(CategoryError) as err:
            FiniteCategory.from_columns("c", ("X", "Y"), (1,), (2,), (), ())
        assert type(err.value) is CategoryError
        assert str(err.value) == "unequal columns: src 1, dst 1, weight 0, label 0"


class TestComposablePairs:
    def test_matches_brute_force_on_random_categories(self):
        # loops and parallel generators among them
        rng = random.Random(1414)
        loops = parallels = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            morphisms = [
                (rng.randint(1, n), rng.randint(1, n), 0.0, "") for _ in range(rng.randint(0, 7))
            ]
            if morphisms and rng.random() < 0.5:
                morphisms.append(rng.choice(morphisms))
            names = [f"O{i}" for i in range(n)]
            cat = FiniteCategory.from_columns("random", names, *transpose(morphisms))
            brute = [
                (f, g)
                for f in range(1, len(morphisms) + 1)
                for g in range(1, len(morphisms) + 1)
                if morphisms[f - 1][1] == morphisms[g - 1][0]
            ]
            assert cat.composable_pairs() == brute
            loops += any(src == dst for src, dst, _, _ in morphisms)
            parallels += len(set(morphisms)) < len(morphisms)
        assert loops > 50 and parallels > 50

    def test_a_loop_composes_with_itself_and_parallels_count_apart(self):
        morphisms = [(1, 1, 0.0, "loop"), (1, 2, 0.0, "a"), (1, 2, 0.0, "b"), (2, 1, 0.0, "c")]
        cat = FiniteCategory.from_columns("loops", ("X", "Y"), *transpose(morphisms))
        assert cat.composable_pairs() == [
            (1, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 1), (4, 2), (4, 3)
        ]
        assert list(cat.morphisms) == [1, 2, 3, 4]


class TestFunctorLaws:
    def test_identity_passes(self):
        assert check_functor_laws(Functor.identity(triangle())).ok

    def test_non_composing_images_fail_with_pair(self):
        cat = triangle()
        functor = Functor.identity(cat)
        functor.morphism_images[0] = 3  # a: X->Y now lands on c: X->Z, so (a, b) breaks
        report = check_functor_laws(functor)
        assert not report.ok
        assert any("pair" in failure for failure in report.failures)

    def test_price_functor_passes(self):
        names = ("GoodPrice", "LaborPrice", "ResourcePrice")
        nominal, real = objects_only("nominal", names), objects_only("real", names)
        price = Functor(nominal, real, [1, 2, 3], [])
        assert check_functor_laws(price).ok

    def test_every_single_edit_corruption_fails(self):
        # mutation test: any one reassignment of a passing functor must be caught
        base = triangle()
        n_objects = len(base.names)
        n_morphisms = len(base.morphisms)
        for obj_id in range(1, n_objects + 1):
            for new_target in range(1, n_objects + 1):
                if new_target == obj_id:
                    continue
                functor = Functor.identity(base)
                functor.object_images[obj_id - 1] = new_target
                assert not check_functor_laws(functor).ok, (obj_id, new_target)
        for mor_id in range(1, n_morphisms + 1):
            for new_target in range(1, n_morphisms + 1):
                if new_target == mor_id:
                    continue
                functor = Functor.identity(base)
                functor.morphism_images[mor_id - 1] = new_target
                assert not check_functor_laws(functor).ok, (mor_id, new_target)

    def test_unmapped_object_fails(self):
        functor = Functor.identity(triangle())
        functor.object_images[1] = None  # object 2
        report = check_functor_laws(functor)
        assert not report.ok


# The two-path check_functor_laws that the one walk replaced, verbatim: the
# endpoint and composable-pair columns compared whole, the walk run only on
# a mismatch.  The one walk must return what it returns.  It enumerates the
# composable pairs itself, with the category method it called then, and
# reads a functor's images as the id -> id dicts a functor held then.


class DictFunctor(NamedTuple):
    """A functor with its images as id -> id dicts, an id without an image left out."""

    source: FiniteCategory
    target: FiniteCategory
    object_map: dict[int, int]
    morphism_map: dict[int, int]


def dict_view(images: list) -> dict[int, int]:
    """The dict a list of images stands for: entry i - 1 is the image of id i, None none."""
    return {i: image for i, image in enumerate(images, 1) if image is not None}


def as_dicts(functor: Functor) -> DictFunctor:
    return DictFunctor(
        functor.source,
        functor.target,
        dict_view(functor.object_images),
        dict_view(functor.morphism_images),
    )


def composable_positions(cat: FiniteCategory) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positions i, j of the generator pairs with dst[i] == src[j], by i then j."""
    by_src: dict[int, list[int]] = {}
    for j, s in enumerate(cat.src):
        by_src.setdefault(s, []).append(j)
    pairs = [(i, j) for i, d in enumerate(cat.dst) for j in by_src.get(d, ())]
    return tuple(zip(*pairs)) or ((), ())


def _image_ids(mapping: Mapping[int, int], count: int, bound: int) -> list[int] | None:
    """`mapping[i]` for the ids i = 1..count; None when one is missing or not in 1..bound."""
    try:
        ids = [mapping[i] for i in range(1, count + 1)]
        if not ids or 1 <= min(ids) and max(ids) <= bound:
            return ids
    except (KeyError, TypeError):
        pass
    return None


def two_path_check_functor_laws(functor: DictFunctor) -> LawReport:
    """Check totality, endpoint coherence and composition preservation.

    The images' endpoint columns are compared whole; only when one differs
    are the generators walked to name each failure.
    """
    src_cat, dst_cat = functor.source, functor.target
    object_map, morphism_map = functor.object_map, functor.morphism_map
    starts, ends, n_objects = dst_cat.src, dst_cat.dst, len(dst_cat.names)
    objects = _image_ids(object_map, len(src_cat.names), n_objects)
    images = _image_ids(morphism_map, len(src_cat.src), len(starts))
    if objects is not None and images is not None:
        image_src = [starts[j - 1] for j in images]
        image_dst = [ends[j - 1] for j in images]
        if image_src == [objects[s - 1] for s in src_cat.src] and image_dst == [
            objects[d - 1] for d in src_cat.dst
        ]:
            firsts, seconds = composable_positions(src_cat)
            if [image_dst[i] for i in firsts] == [image_src[j] for j in seconds]:
                return LawReport(True, [])

    failures: list[str] = []
    for obj_id, name in enumerate(src_cat.names, 1):
        image = object_map.get(obj_id)
        if image is None:
            failures.append(f"object {name!r} has no image")
        elif not 1 <= image <= n_objects:
            failures.append(f"object {name!r} maps to missing id {image}")
    resolved: dict[int, int] = {}
    for mor_id, (s, d, label) in enumerate(zip(src_cat.src, src_cat.dst, src_cat.label), 1):
        mapped = morphism_map.get(mor_id)
        if mapped is None:
            failures.append(f"morphism {mor_id} ({label or 'unlabeled'}) has no image")
        elif not 1 <= mapped <= len(starts):
            failures.append(f"morphism {mor_id} maps to missing id {mapped}")
        else:
            resolved[mor_id] = mapped
            image_src, image_dst = starts[mapped - 1], ends[mapped - 1]
            if image_src != object_map.get(s):
                failures.append(
                    f"morphism {mor_id}: image source {image_src} != F(src) {object_map.get(s)}"
                )
            if image_dst != object_map.get(d):
                failures.append(
                    f"morphism {mor_id}: image target {image_dst} != F(dst) {object_map.get(d)}"
                )
    for i, j in zip(*composable_positions(src_cat)):
        f_img, g_img = resolved.get(i + 1), resolved.get(j + 1)
        if f_img is not None and g_img is not None and ends[f_img - 1] != starts[g_img - 1]:
            failures.append(
                f"composable pair ({i + 1}, {j + 1}) maps to non-composing pair ({f_img}, {g_img})"
            )
    return LawReport(ok=not failures, failures=failures)


def with_images(functor: Functor, which: str, images: list) -> Functor:
    """A new functor like `functor` but with its `which` list set to `images`."""
    columns = {"object_images": functor.object_images, "morphism_images": functor.morphism_images}
    return Functor(functor.source, functor.target, **{**columns, which: images})


def single_edits(functor: Functor):
    """Each functor one edit away: an image set to every id or out of range, or to None."""
    objects = (*range(1, len(functor.target.names) + 1), 999, None)
    morphisms = (*range(1, len(functor.target.src) + 1), 0, 999, None)
    for which, values in (("object_images", objects), ("morphism_images", morphisms)):
        for position in range(len(getattr(functor, which))):
            for new in values:
                images = list(getattr(functor, which))
                images[position] = new
                yield with_images(functor, which, images)


class TestOneWalkDifferential:
    @pytest.fixture
    def snapshots(self, monkeypatch) -> tuple[Functor, Functor]:
        """The two snapshot functors of the third period of the default run."""
        from catledger import evolution
        from catledger.decisions import Parameters

        captured = []
        original = evolution.build_time_step

        def record(flows, old, new):
            built = original(flows, old, new)
            captured.append(built)
            return built

        monkeypatch.setattr(evolution, "build_time_step", record)
        params = Parameters()
        state = evolution.initial_state(params)
        for period in range(3):
            state, _ = evolution.period_step(
                state, params, period, engine=evolution.EngineKind.CATEGORICAL
            )
        _, f_t, f_t1, _ = captured[-1]
        return f_t, f_t1

    def test_every_single_edit_of_a_real_period_reports_as_before(self, snapshots):
        edited = 0
        for functor in snapshots:
            assert check_functor_laws(functor) == two_path_check_functor_laws(as_dicts(functor))
            assert check_functor_laws(functor).ok
            for variant in single_edits(functor):
                assert check_functor_laws(variant) == two_path_check_functor_laws(as_dicts(variant))
                edited += 1
        assert edited == 4854

    @pytest.mark.parametrize("which", ["object_images", "morphism_images"])
    def test_an_image_list_one_short_or_one_long_reports_as_before(self, snapshots, which):
        # zip stops at the shorter list: the last id of a short list must
        # still be reported, and the surplus image of a long one is ignored
        for functor in snapshots:
            images = getattr(functor, which)
            short = with_images(functor, which, images[:-1])
            long = with_images(functor, which, [*images, images[-1]])
            for variant in (short, long):
                assert check_functor_laws(variant) == two_path_check_functor_laws(as_dicts(variant))
            last = (
                f"object {functor.source.names[-1]!r} has no image"
                if which == "object_images"
                else f"morphism {len(images)} ({functor.source.label[-1]}) has no image"
            )
            assert last in check_functor_laws(short).failures
            assert check_functor_laws(long) == LawReport(True, [])


def two_snapshot_transformation(weights: dict[str, float]):
    """A base category of named accounts plus the step category holding two
    snapshots and one weighted evolution edge per account."""
    base = objects_only("accounts", list(weights))
    # account i's snapshots are step objects 2i - 1 and 2i, its edge generator i
    n = len(weights)
    objects, at_t, at_t1 = range(1, n + 1), range(1, 2 * n, 2), range(2, 2 * n + 1, 2)
    step = FiniteCategory.from_columns(
        "step",
        [f"{name}{level}" for name in weights for level in ("@t", "@t+1")],
        at_t,
        at_t1,
        list(weights.values()),
        [""] * n,
    )
    f_t = Functor(base, step, list(at_t), [])
    f_t1 = Functor(base, step, list(at_t1), [])
    return base, step, NaturalTransformation(f_t, f_t1, list(objects))


def object_id(cat: FiniteCategory, name: str) -> int:
    return cat.names.index(name) + 1


class TestNaturality:
    def test_identity_components_pass(self):
        cat = triangle()
        target = FiniteCategory.from_columns(
            "target", cat.names, cat.src, cat.dst, [0.0] * len(cat.src), cat.label
        )
        objects = range(1, len(cat.names) + 1)
        functor = Functor(cat, target, list(objects), list(cat.morphisms))
        loops = [f"id_{name}" for name in cat.names]
        components = list(target.extend(objects, objects, [0.0] * len(loops), loops))
        eta = NaturalTransformation(functor, functor, components)
        assert check_naturality(eta).ok

    def test_swapped_component_fails_naming_the_morphism(self):
        weights = {"LabBank": 0.0, "ResBank": 208.0, "ComBank": 52.0}
        base, step, eta = two_snapshot_transformation(weights)
        res, com = object_id(base, "ResBank"), object_id(base, "ComBank")
        (flow,) = base.extend((res,), (com,), (1.0,), ("",))
        for functor in (eta.F, eta.G):
            src, dst, weight = base.src[flow - 1], base.dst[flow - 1], base.weight[flow - 1]
            # the flow is the last generator, so its image goes last
            src_image, dst_image = functor.object_images[src - 1], functor.object_images[dst - 1]
            functor.morphism_images += step.extend((src_image,), (dst_image,), (weight,), ("",))
        assert check_naturality(eta).ok
        # point Res's component at Com's evolution edge
        eta.components[res - 1] = eta.components[com - 1]
        report = check_naturality(eta)
        assert not report.ok
        assert any("morphism" in failure or "component" in failure for failure in report.failures)

    def test_weighted_period_components_pass(self):
        weights = {"LabBank": 0.0, "ResBank": 208.0, "ComBank": 52.0}
        base, step, eta = two_snapshot_transformation(weights)
        assert check_naturality(eta).ok
        assert step.weight[eta.components[object_id(base, "ResBank") - 1] - 1] == 208.0


def brute_force_naturality(eta: NaturalTransformation) -> bool:
    """Independent re-derivation: enumerate every generator square from raw tuples.

    It reads the functors and components as id -> id dicts (`dict_view`).
    """
    F, G = as_dicts(eta.F), as_dicts(eta.G)
    components = dict_view(eta.components)
    if F.source is not G.source or F.target is not G.target:
        return False
    source, target = F.source, F.target
    # each target generator's (src, dst), by id; a missing id raises KeyError
    endpoints = dict(enumerate(zip(target.src, target.dst), 1)).__getitem__

    for obj_id in range(1, len(source.names) + 1):
        if obj_id not in components:
            return False
        src, dst = endpoints(components[obj_id])
        if (src, dst) != (F.object_map.get(obj_id), G.object_map.get(obj_id)):
            return False
    for mor_id, (mor_src, mor_dst) in enumerate(zip(source.src, source.dst), 1):
        if mor_id not in F.morphism_map or mor_id not in G.morphism_map:
            return False
        fa_src, fa_dst = endpoints(F.morphism_map[mor_id])
        ga_src, ga_dst = endpoints(G.morphism_map[mor_id])
        ea_src, ea_dst = endpoints(components[mor_src])
        eb_src, eb_dst = endpoints(components[mor_dst])
        left = ea_dst == ga_src and (ea_src, ga_dst)
        right = fa_dst == eb_src and (fa_src, eb_dst)
        if left is False or right is False or left != right:
            return False
    return True


class TestNaturalityEquivalence:
    def test_checker_matches_brute_force_on_random_corruptions(self):
        rng = random.Random(2307)
        for trial in range(60):
            names = [f"A{i}" for i in range(rng.randint(2, 5))]
            weights = {name: float(rng.randint(0, 300)) for name in names}
            base, step, eta = two_snapshot_transformation(weights)
            for _ in range(rng.randint(0, 4)):
                src, dst = rng.sample(range(1, len(names) + 1), 2)
                base.extend((src,), (dst,), (float(rng.randint(0, 9)),), ("",))
                # extend the functors' morphism images with snapshot copies
                for functor, level in ((eta.F, 0), (eta.G, 1)):
                    (copy,) = step.extend(
                        (functor.object_images[base.src[-1] - 1],),
                        (functor.object_images[base.dst[-1] - 1],),
                        (base.weight[-1],),
                        ("",),
                    )
                    functor.morphism_images.append(copy)  # the image of the last generator
            if rng.random() < 0.5 and len(names) >= 2:
                # corrupt one component
                victim, donor = rng.sample(range(1, len(names) + 1), 2)
                eta.components[victim - 1] = eta.components[donor - 1]
            assert check_naturality(eta).ok == brute_force_naturality(eta)


def real_time_step(monkeypatch, periods: int = 3):
    """The flows, time step, snapshot functors and transformation of a default run's last period."""
    from catledger import evolution
    from catledger.decisions import Parameters

    captured = []
    original = evolution.build_time_step

    def record(flows, old, new):
        captured.append((flows, *original(flows, old, new)))
        return captured[-1][1:]

    monkeypatch.setattr(evolution, "build_time_step", record)
    params = Parameters()
    state = evolution.initial_state(params)
    for period in range(periods):
        state, _ = evolution.period_step(
            state, params, period, engine=evolution.EngineKind.CATEGORICAL
        )
    return captured[-1]


def cold_report(check, subject) -> LawReport:
    """What `check` reports of `subject` with an empty memo; the memo is left as it was."""
    warm = catcore._LAWFUL
    catcore._LAWFUL = []
    try:
        return check(subject)
    finally:
        catcore._LAWFUL = warm


def naturality_edits(eta: NaturalTransformation):
    """Each transformation one edit away from `eta`: a component, or an object or
    morphism image of either functor, set to None, 0, one past its bound or each other id."""
    F, G = eta.F, eta.G
    n_objects, n_morphisms = len(F.target.names), len(F.target.src)

    def values(current, bound):
        return (None, 0, bound + 1, *(i for i in range(1, bound + 1) if i != current))

    for position, current in enumerate(eta.components):
        for new in values(current, n_morphisms):
            components = eta.components[:]
            components[position] = new
            yield NaturalTransformation(F, G, components)
    for side, functor in (("F", F), ("G", G)):
        for which, bound in (("object_images", n_objects), ("morphism_images", n_morphisms)):
            for position, current in enumerate(getattr(functor, which)):
                for new in values(current, bound):
                    images = getattr(functor, which)[:]
                    images[position] = new
                    edited = with_images(functor, which, images)
                    pair = (edited, G) if side == "F" else (F, edited)
                    yield NaturalTransformation(*pair, eta.components)


class TestLawMemo:
    """A law check answers from `_LAWFUL` only with what its walk would report."""

    @pytest.fixture
    def time_step(self, monkeypatch):
        return real_time_step(monkeypatch)

    def test_every_single_edit_of_a_real_transformation_reports_as_on_an_empty_memo(
        self, time_step
    ):
        # four edits pass: either functor's image of a dividend channel moved
        # onto the other, which runs between the same two accounts
        *_, eta = time_step
        reports = []
        for variant in naturality_edits(eta):
            assert check_naturality(eta) == LawReport(True, [])  # the memo holds eta
            reports.append(check_naturality(variant))
            assert reports[-1] == cold_report(check_naturality, variant)
        assert len(reports) == 6168
        assert sum(report.ok for report in reports) == 4

    def test_functors_that_are_not_parallel_fail_on_a_warm_memo(self, time_step):
        # G's target swapped for an equal copy: every column the memo keys on
        # equals the honest transformation's, so only the live test can refuse it
        _, step, f_t, f_t1, eta = time_step
        copy = FiniteCategory(step.name, step.names, step.src, step.dst, step.weight, step.label)
        swapped = NaturalTransformation(
            f_t, Functor(f_t1.source, copy, f_t1.object_images, f_t1.morphism_images), eta.components
        )
        assert check_naturality(eta).ok
        report = check_naturality(swapped)
        assert report == LawReport(False, ["functors are not parallel"])
        assert report == cold_report(check_naturality, swapped)

    def test_every_single_edit_of_a_real_functor_reports_as_on_an_empty_memo(self, time_step):
        _, _, f_t, f_t1, _ = time_step
        for functor in (f_t, f_t1):
            for variant in single_edits(functor):
                assert check_functor_laws(functor).ok
                assert check_functor_laws(variant) == cold_report(check_functor_laws, variant)

    def test_a_list_edited_in_place_after_a_pass_is_reported(self, time_step, monkeypatch):
        # the memo keeps copies: an edit to a passed functor's or transformation's
        # own lists is a new key, walked and reported; the memo starts empty,
        # so each first check below remembers the subject's own lists
        monkeypatch.setattr(catcore, "_LAWFUL", [])
        flows, step, f_t, f_t1, eta = time_step
        first_image = f_t1.morphism_images[0] - 1  # the column position of F_t+1's first image
        checks = (
            (check_functor_laws, f_t1, f_t1.morphism_images, 0),
            (check_functor_laws, f_t1, f_t1.object_images, 0),
            (check_functor_laws, f_t, flows.dst, 0),
            (check_functor_laws, f_t1, step.src, first_image),
            (check_naturality, eta, eta.components, 0),
            (check_naturality, eta, f_t.object_images, 0),
            (check_naturality, eta, step.dst, first_image),
        )
        for check, subject, column, at in checks:
            assert check(subject).ok
            kept, column[at] = column[at], 2 if column[at] == 1 else 1
            report = check(subject)
            assert not report.ok
            assert report == cold_report(check, subject)
            column[at] = kept
            assert check(subject).ok
        flows.names.append("Extra")  # an object with no image and no component
        for check, subject in ((check_functor_laws, f_t), (check_naturality, eta)):
            report = check(subject)
            assert not report.ok
            assert report == cold_report(check, subject)
        flows.names.pop()

    def test_a_categorical_run_walks_each_law_check_once(self, monkeypatch):
        # 20 periods check F_t, F_t+1 and eta 20 times each: one walk each
        # fills the memo, and every later check answers from it
        from catledger import evolution
        from catledger.decisions import Parameters

        walked = []
        remember = catcore._remember
        monkeypatch.setattr(catcore, "_LAWFUL", [])
        monkeypatch.setattr(catcore, "_remember", lambda key: [walked.append(key), remember(key)])
        evolution.run(Parameters(horizon=19), engine=evolution.EngineKind.CATEGORICAL)
        assert [(key[0], key[1][0]) for key in walked] == [
            ("functor", 1), ("functor", 21), ("naturality", 1)
        ]
        assert len(catcore._LAWFUL) == 3


class TestFinSetMaps:
    def test_partial_mapping_rejected(self):
        with pytest.raises(FinSetError):
            FinSetMap(("a", "b"), ("t",), {"a": "t"})

    def test_image_outside_codomain_rejected(self):
        with pytest.raises(FinSetError):
            FinSetMap(("a",), ("t",), {"a": "x"})

    def test_a_labeled_map_reprs_as_the_call_that_rebuilds_it(self):
        labeled = FinSetMap(("a", "b"), ("t", "f"), {"b": "t", "a": "f"})
        assert repr(labeled) == "FinSetMap(('a', 'b'), ('t', 'f'), {'a': 'f', 'b': 't'})"
        assert eval(repr(labeled), {"FinSetMap": FinSetMap}) == labeled

    def test_maps_of_one_function_agree_whatever_the_dict_order(self):
        labeled = FinSetMap(("a", "b", "c"), ("t", "f"), {"c": "f", "a": "f", "b": "t"})
        same = FinSetMap(("a", "b", "c"), ("t", "f"), {"a": "f", "b": "t", "c": "f"})
        assert labeled == same and same == labeled
        assert list(labeled.mapping.items()) == list(same.mapping.items())
        assert dict(labeled.mapping) == {"a": "f", "b": "t", "c": "f"}
        assert [labeled(x) for x in "abc"] == ["f", "t", "f"]
        assert labeled != FinSetMap(("a", "b", "c"), ("t", "f"), dict.fromkeys("abc", "f"))
        assert labeled != FinSetMap(("a", "b", "c"), ("f", "t"), dict(same.mapping))
        with pytest.raises(TypeError):
            labeled.mapping["a"] = "t"

    def test_a_map_equals_no_other_type(self):
        labeled = FinSetMap(("a",), ("t",), {"a": "t"})
        assert labeled.__eq__((("a",), ("t",), {"a": "t"})) is NotImplemented
        assert labeled != (("a",), ("t",), {"a": "t"}) and labeled != {"a": "t"}


PULLBACK_FIXTURE = (
    FinSetMap(("a", "b"), ("t", "f"), {"a": "t", "b": "f"}),
    FinSetMap(("x", "y", "z"), ("t", "f"), {"x": "t", "y": "t", "z": "f"}),
)


class TestPullback:
    def test_worked_example(self):
        f, g = PULLBACK_FIXTURE
        apex, p_a, p_b = finset_pullback(f, g)
        assert apex == (("a", "x"), ("a", "y"), ("b", "z"))
        assert [p_a(p) for p in apex] == ["a", "a", "b"]
        assert [p_b(p) for p in apex] == ["x", "y", "z"]

    def test_empty_leg_gives_empty_apex(self):
        f = FinSetMap(("a",), ("t",), {"a": "t"})
        g = FinSetMap((), ("t",), {})
        apex, _, _ = finset_pullback(f, g)
        assert apex == ()

    def test_identity_pair_gives_diagonal(self):
        ident = FinSetMap(("t", "f"), ("t", "f"), {"t": "t", "f": "f"})
        apex, _, _ = finset_pullback(ident, ident)
        assert apex == (("t", "t"), ("f", "f"))

    def test_codomain_mismatch(self):
        f = FinSetMap(("a",), ("t",), {"a": "t"})
        g = FinSetMap(("x",), ("u",), {"x": "u"})
        with pytest.raises(FinSetError):
            finset_pullback(f, g)

    def test_square_commutes(self):
        f, g = PULLBACK_FIXTURE
        apex, p_a, p_b = finset_pullback(f, g)
        for p in apex:
            assert f(p_a(p)) == g(p_b(p))


PUSHOUT_FIXTURE = (
    FinSetMap(("t",), ("a", "b"), {"t": "a"}),
    FinSetMap(("t",), ("x", "y"), {"t": "x"}),
)


class TestPushout:
    def test_worked_example_three_classes(self):
        f, g = PUSHOUT_FIXTURE
        classes, i_a, i_b = finset_pushout(f, g)
        assert len(classes) == 3
        assert i_a("a") == i_b("x")  # the glued class
        assert i_a("b") != i_b("y")

    def test_empty_base_gives_disjoint_union(self):
        f = FinSetMap((), ("a", "b"), {})
        g = FinSetMap((), ("x", "y", "z"), {})
        classes, _, _ = finset_pushout(f, g)
        assert len(classes) == 5

    def test_identity_pair_collapses_to_base(self):
        ident = FinSetMap(("c1", "c2"), ("c1", "c2"), {"c1": "c1", "c2": "c2"})
        classes, i_a, i_b = finset_pushout(ident, ident)
        assert len(classes) == 2
        assert all(i_a(c) == i_b(c) for c in ("c1", "c2"))

    def test_domain_mismatch(self):
        f = FinSetMap(("t",), ("a",), {"t": "a"})
        g = FinSetMap(("u",), ("x",), {"u": "x"})
        with pytest.raises(FinSetError):
            finset_pushout(f, g)


def random_map(rng: random.Random, domain: tuple, codomain: tuple) -> FinSetMap:
    return FinSetMap(domain, codomain, {x: rng.choice(codomain) for x in domain})


class TestUniversalProperties:
    def test_pullback_fixture(self):
        f, g = PULLBACK_FIXTURE
        apex, p_a, p_b = finset_pullback(f, g)
        assert verify_pullback_universal(f, g, apex, p_a, p_b)

    def test_pushout_fixture(self):
        f, g = PUSHOUT_FIXTURE
        classes, i_a, i_b = finset_pushout(f, g)
        assert verify_pushout_universal(f, g, classes, i_a, i_b)

    def test_wrong_apex_fails_the_search(self):
        f, g = PULLBACK_FIXTURE
        apex, p_a, p_b = finset_pullback(f, g)
        truncated = apex[:-1]
        p_a_bad = FinSetMap(truncated, f.domain, {p: p[0] for p in truncated})
        p_b_bad = FinSetMap(truncated, g.domain, {p: p[1] for p in truncated})
        assert not verify_pullback_universal(f, g, truncated, p_a_bad, p_b_bad)

    def test_overglued_pushout_fails_the_search(self):
        f, g = PUSHOUT_FIXTURE
        everything = frozenset({("A", "a"), ("A", "b"), ("B", "x"), ("B", "y")})
        collapsed = (everything,)
        i_a = FinSetMap(f.codomain, collapsed, {a: everything for a in f.codomain})
        i_b = FinSetMap(g.codomain, collapsed, {b: everything for b in g.codomain})
        assert not verify_pushout_universal(f, g, collapsed, i_a, i_b)

    def test_a_pullback_square_that_does_not_commute_fails(self):
        # the true apex plus (a, z), where f(a) = t but g(z) = f: every cone
        # still has exactly one mediator, so only the square check can fail
        f, g = PULLBACK_FIXTURE
        apex = (*finset_pullback(f, g)[0], ("a", "z"))
        p_a = FinSetMap(apex, f.domain, {p: p[0] for p in apex})
        p_b = FinSetMap(apex, g.domain, {p: p[1] for p in apex})
        assert not verify_pullback_universal(f, g, apex, p_a, p_b)

    def test_a_pushout_square_that_does_not_commute_fails(self):
        # the disjoint union glues nothing: every cocone has exactly one
        # mediator, so only the square check can fail
        f, g = PUSHOUT_FIXTURE
        apex = (*(("A", a) for a in f.codomain), *(("B", b) for b in g.codomain))
        i_a = FinSetMap(f.codomain, apex, {a: ("A", a) for a in f.codomain})
        i_b = FinSetMap(g.codomain, apex, {b: ("B", b) for b in g.codomain})
        assert not verify_pushout_universal(f, g, apex, i_a, i_b)

    def test_random_small_fixtures(self):
        rng = random.Random(99)
        letters = "pqrst"
        for _ in range(25):
            size_a = rng.randint(1, 4)
            size_b = rng.randint(1, 4)
            size_c = rng.randint(1, 3)
            a = tuple(f"a{i}" for i in range(size_a))
            b = tuple(f"b{i}" for i in range(size_b))
            c = tuple(letters[i] for i in range(size_c))
            f = random_map(rng, a, c)
            g = random_map(rng, b, c)
            apex, p_a, p_b = finset_pullback(f, g)
            assert verify_pullback_universal(f, g, apex, p_a, p_b)
            fo = random_map(rng, c, a)
            go = random_map(rng, c, b)
            classes, i_a, i_b = finset_pushout(fo, go)
            assert verify_pushout_universal(fo, go, classes, i_a, i_b)


class TestEnumerateMaps:
    def test_counts(self):
        assert len(list(enumerate_maps(("a", "b"), ("x", "y", "z")))) == 9
        assert list(enumerate_maps((), ("x",))) == [{}]


class TestLawReport:
    @pytest.mark.parametrize("ok, failures", [(True, []), (False, ["functors are not parallel"])])
    def test_a_report_is_true_exactly_when_it_passed(self, ok, failures):
        report = LawReport(ok, failures)
        assert bool(report) is report.ok is ok

    def test_a_report_reprs_its_verdict_and_failures(self):
        assert repr(LawReport(True, [])) == "LawReport(ok=True, failures=[])"
        assert repr(LawReport(False, ["x"])) == "LawReport(ok=False, failures=['x'])"

    def test_a_report_equals_no_other_type(self):
        assert LawReport(True, []).__eq__((True, [])) is NotImplemented
        assert LawReport(True, []) != (True, [])
        assert LawReport(True, []) == LawReport(True, [])


class TestLawChecksReportInsteadOfRaising:
    def test_functor_image_outside_target_is_reported(self):
        # morphism 1 (a: X->Y) composes with morphism 2 (b: Y->Z), so the
        # composable-pair walk meets the unresolvable image too
        functor = Functor.identity(triangle())
        functor.morphism_images[0] = 99
        report = check_functor_laws(functor)
        assert not report.ok
        assert "morphism 1 maps to missing id 99" in report.failures

    def test_naturality_component_outside_target_is_reported(self):
        base, _, eta = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        eta.components[object_id(base, "ResBank") - 1] = 99
        report = check_naturality(eta)
        assert not report.ok
        assert any("'ResBank'" in failure and "99" in failure for failure in report.failures)

    def test_a_square_that_composes_but_is_not_parallel_is_named(self):
        # f: A -> B; eta_A starts at 5, not at F(A) = 1, yet both paths compose
        base = FiniteCategory.from_columns("base", ("A", "B"), (1,), (2,), (0.0,), ("f",))
        ends = [(1, 2), (3, 4), (5, 3), (2, 4)]  # F(f), G(f), eta_A, eta_B
        step = FiniteCategory.from_columns("step", "12345", *zip(*ends), (0.0,) * 4, ("",) * 4)
        f = Functor(base, step, [1, 2], [1])
        g = Functor(base, step, [3, 4], [2])
        report = check_naturality(NaturalTransformation(f, g, [3, 4]))
        assert report.failures == [
            "component at 'A' is mistyped: 5->3 is not F(A)->G(A)",
            "square for morphism 1 is not parallel",
        ]

    def test_functors_from_different_sources_are_not_parallel(self):
        _, _, eta = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        _, _, other = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        report = check_naturality(NaturalTransformation(eta.F, other.G, eta.components))
        assert report == LawReport(False, ["functors are not parallel"])

    def test_naturality_square_image_outside_target_is_reported(self):
        base, step, eta = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        (flow,) = base.extend((1,), (2,), (0.0,), ("",))
        eta.F.morphism_images += step.extend((1,), (3,), (0.0,), ("",))
        eta.G.morphism_images.append(99)  # the image of the new flow
        report = check_naturality(eta)
        assert not report.ok
        assert any(f"morphism {flow}" in failure for failure in report.failures)


    @pytest.mark.parametrize("bad", [2.0, 1.5, "b", 1j])
    def test_a_morphism_image_that_is_not_an_int_id_is_refused_when_built(self, bad):
        cat = triangle()
        images = list(cat.morphisms)
        images[0] = bad
        with pytest.raises(CategoryError) as err:
            Functor(cat, cat, [1, 2, 3], images)
        assert str(err.value) == (
            f"morphism_images: source id 1 maps to {bad!r}, not an int id or None"
        )

    def test_an_object_image_that_is_not_an_int_id_is_refused_when_built(self):
        cat = triangle()
        with pytest.raises(CategoryError, match="object_images: source id 2 maps to 'Y'"):
            Functor(cat, cat, [1, "Y", 3], list(cat.morphisms))

    def test_a_type_error_from_the_category_itself_is_raised(self):
        cat = triangle()
        functor = Functor.identity(cat)
        cat.src[0] = 1.5  # past `extend`, which refuses it: no image is to blame
        with pytest.raises(TypeError):
            check_functor_laws(functor)
        base, step, eta = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        base.extend((1,), (2,), (0.0,), ("",))
        eta.F.morphism_images += step.extend((1,), (3,), (0.0,), ("",))
        eta.G.morphism_images += step.extend((2,), (4,), (0.0,), ("",))
        assert check_naturality(eta).ok
        base.src[0] = 1.5
        with pytest.raises(TypeError):
            check_naturality(eta)

    @pytest.mark.parametrize("bad", [2.0, "b"])
    @pytest.mark.parametrize("where", ["component", "square image"])
    def test_naturality_refuses_a_non_int_id_when_built(self, where, bad):
        base, step, eta = two_snapshot_transformation({"LabBank": 0.0, "ResBank": 208.0})
        base.extend((1,), (2,), (0.0,), ("",))
        eta.F.morphism_images += step.extend((1,), (3,), (0.0,), ("",))
        eta.G.morphism_images += step.extend((2,), (4,), (0.0,), ("",))
        column, at = (eta.components, 1) if where == "component" else (eta.G.morphism_images, 0)
        column[at] = 99  # an int id, if a missing one, is the law check's to report
        assert not check_naturality(eta).ok
        column[at] = bad
        name, source_id = ("components", 2) if where == "component" else ("morphism_images", 1)
        with pytest.raises(CategoryError, match=f"{name}: source id {source_id} maps to {bad!r}"):
            if where == "component":
                NaturalTransformation(eta.F, eta.G, column)
            else:
                Functor(eta.G.source, eta.G.target, eta.G.object_images, column)

    @pytest.mark.parametrize("bad", [2.0, 1.5, "b", 1j])
    @pytest.mark.parametrize("column", ["object_images", "morphism_images", "components"])
    def test_an_entry_that_is_neither_none_nor_an_int_is_refused_by_name(self, column, bad):
        # the law checks compare object images and never index by one, so 2.0 would pass as 2
        cat = triangle()
        columns = {
            "object_images": [1, 2, 3],
            "morphism_images": list(cat.morphisms),
            "components": [None] * 3,
        }
        columns[column][1] = bad
        with pytest.raises(CategoryError) as err:
            functor = Functor(cat, cat, columns["object_images"], columns["morphism_images"])
            NaturalTransformation(functor, functor, columns["components"])
        assert str(err.value) == f"{column}: source id 2 maps to {bad!r}, not an int id or None"

    def test_none_entries_and_the_identity_are_accepted(self):
        cat = triangle()
        identity = Functor.identity(cat)
        assert check_functor_laws(identity).ok
        partial = Functor(cat, cat, [1, None, 3], [None, 2, None])
        assert NaturalTransformation(identity, partial, [None, None, None]).components == [None] * 3
        assert check_functor_laws(partial).failures[:2] == [
            "object 'Y' has no image",
            "morphism 1 (a) has no image",
        ]

    def test_a_bool_is_not_an_id(self):
        cat = triangle()
        with pytest.raises(CategoryError, match="source id 1 maps to True"):
            Functor(cat, cat, [True, 2, 3], list(cat.morphisms))

    def test_proved_keeps_the_lists_and_equals_the_checked_build(self):
        # `proved` is for lists a caller built of int ids: it holds the very
        # lists, type-tests none, and builds what the constructor would
        cat = triangle()
        objects, images, components = [1, 2, 3], list(cat.morphisms), [None] * 3
        functor = Functor.proved(cat, cat, objects, images)
        eta = NaturalTransformation.proved(functor, functor, components)
        assert functor.object_images is objects and functor.morphism_images is images
        assert eta.F is eta.G is functor and eta.components is components
        checked = Functor(cat, cat, [1, 2, 3], list(cat.morphisms))
        assert (functor.source, functor.target, functor.object_images, functor.morphism_images) == (
            checked.source, checked.target, checked.object_images, checked.morphism_images
        )
        assert check_functor_laws(functor) == check_functor_laws(checked)
        assert check_naturality(eta) == check_naturality(
            NaturalTransformation(checked, checked, [None] * 3)
        )
        assert Functor.proved(cat, cat, [1, "Y", 3], images).object_images == [1, "Y", 3]


# Verbatim copies of the first FinSet constructions; the labeled constructions
# must reproduce them exactly.
def reference_pullback(
    f: FinSetMap, g: FinSetMap
) -> tuple[tuple[tuple[Hashable, Hashable], ...], FinSetMap, FinSetMap]:
    if tuple(f.codomain) != tuple(g.codomain):
        raise FinSetError("pullback requires a shared codomain")
    apex = tuple((a, b) for a in f.domain for b in g.domain if f(a) == g(b))
    p_a = FinSetMap(apex, f.domain, {p: p[0] for p in apex})
    p_b = FinSetMap(apex, g.domain, {p: p[1] for p in apex})
    return apex, p_a, p_b


def reference_pushout(
    f: FinSetMap, g: FinSetMap
) -> tuple[tuple[frozenset, ...], FinSetMap, FinSetMap]:
    if tuple(f.domain) != tuple(g.domain):
        raise FinSetError("pushout requires a shared domain")

    elements = [("A", a) for a in f.codomain] + [("B", b) for b in g.codomain]
    parent: dict[tuple, tuple] = {e: e for e in elements}

    def find(x: tuple) -> tuple:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: tuple, y: tuple) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for c in f.domain:
        union(("A", f(c)), ("B", g(c)))

    members: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    for e in elements:
        root = find(e)
        if root not in members:
            members[root] = []
            order.append(root)
        members[root].append(e)

    classes = tuple(frozenset(members[root]) for root in order)
    class_of = {e: cls for cls in classes for e in cls}
    i_a = FinSetMap(f.codomain, classes, {a: class_of[("A", a)] for a in f.codomain})
    i_b = FinSetMap(g.codomain, classes, {b: class_of[("B", b)] for b in g.codomain})
    return classes, i_a, i_b


def random_labels(rng: random.Random, prefix: str, size: int) -> tuple:
    """Distinct labels of mixed kinds: strings, ints and tuples."""
    kinds = (lambda i: f"{prefix}{i}", lambda i: i, lambda i: (prefix, i))
    kind = rng.choice(kinds)
    labels = [kind(i) for i in range(size)]
    rng.shuffle(labels)
    return tuple(labels)


def assert_same_map(new: FinSetMap, old: FinSetMap) -> None:
    assert new.domain == old.domain
    assert new.codomain == old.codomain
    assert list(new.mapping.items()) == list(old.mapping.items())


def assert_same_pullback(f: FinSetMap, g: FinSetMap) -> None:
    apex, p_a, p_b = finset_pullback(f, g)
    ref_apex, ref_a, ref_b = reference_pullback(f, g)
    assert apex == ref_apex
    assert_same_map(p_a, ref_a)
    assert_same_map(p_b, ref_b)


def assert_same_pushout(f: FinSetMap, g: FinSetMap) -> None:
    classes, i_a, i_b = finset_pushout(f, g)
    ref_classes, ref_a, ref_b = reference_pushout(f, g)
    assert classes == ref_classes
    assert_same_map(i_a, ref_a)
    assert_same_map(i_b, ref_b)


class TestFinSetDifferential:
    def test_pullback_matches_the_reference(self):
        rng = random.Random(4101)
        for _ in range(400):
            c = random_labels(rng, "c", rng.randint(1, 4))
            f = random_map(rng, random_labels(rng, "a", rng.randint(0, 6)), c)
            g = random_map(rng, random_labels(rng, "b", rng.randint(0, 6)), c)
            assert_same_pullback(f, g)

    def test_pushout_matches_the_reference(self):
        rng = random.Random(4102)
        for _ in range(400):
            c = random_labels(rng, "c", rng.randint(0, 6))
            f = random_map(rng, c, random_labels(rng, "a", rng.randint(1, 5)))
            g = random_map(rng, c, random_labels(rng, "b", rng.randint(1, 5)))
            assert_same_pushout(f, g)

    def test_engine_shaped_pushout_matches_the_reference(self):
        # legs onto the accounts they touch against the identity on legs,
        # with an account touched twice, as in the dividend booking
        legs = tuple(range(8))
        accounts = ("ComBank", "CapBank", "BankComBank", "BankCapBank", "CapDiv", "ComDiv")
        touched = dict(zip(legs, accounts + ("ComDiv", "CapDiv")))
        to_account = FinSetMap(legs, accounts, touched)
        to_slot = FinSetMap(legs, legs, {i: i for i in legs})
        assert_same_pushout(to_account, to_slot)
        assert len(finset_pushout(to_account, to_slot)[0]) == 6

    @pytest.mark.parametrize("booking_id", range(1, 9))
    def test_the_engine_limits_match_on_every_booking(self, booking_id):
        # each booking's fixed pushout inputs, and its gate when every leg
        # is ok and when its first leg overdraws
        from catledger.evolution import _FIXED, _SPEC_CONE
        from catledger.ledger import BOOKINGS

        to_account, to_slot, *_ = _FIXED[booking_id]
        legs = to_slot.domain
        assert_same_pushout(to_account, to_slot)
        all_ok = FinSetMap(legs, _SPEC_CONE.codomain, dict.fromkeys(legs, "ok"))
        assert_same_pullback(all_ok, _SPEC_CONE)
        outcomes = (f"insufficient-balance:{BOOKINGS[booking_id][1][0][0]}", "ok")
        first_fails = FinSetMap(legs, outcomes, {**dict.fromkeys(legs, "ok"), 0: outcomes[0]})
        cone = FinSetMap(("all",), outcomes, {"all": "ok"})
        assert_same_pullback(first_fails, cone)
        assert len(finset_pullback(first_fails, cone)[0]) == len(legs) - 1

    @pytest.mark.parametrize("booking_id", range(1, 9))
    def test_every_booking_s_proof_inputs_are_universal(self, booking_id):
        # `check-laws` searches booking 6 only; the table proof relies on all eight
        from catledger.evolution import _FIXED, _SPEC_CONE

        to_account, to_slot, *_ = _FIXED[booking_id]
        legs = to_slot.domain
        assert verify_pushout_universal(to_account, to_slot, *finset_pushout(to_account, to_slot))
        all_ok = FinSetMap(legs, _SPEC_CONE.codomain, dict.fromkeys(legs, "ok"))
        assert verify_pullback_universal(all_ok, _SPEC_CONE, *finset_pullback(all_ok, _SPEC_CONE))

    def test_the_limits_keep_the_shape_errors(self):
        f = FinSetMap(("a",), ("t",), {"a": "t"})
        g = FinSetMap(("x",), ("u",), {"x": "u"})
        with pytest.raises(FinSetError, match="^pullback requires a shared codomain$"):
            finset_pullback(f, g)
        with pytest.raises(FinSetError, match="^pushout requires a shared domain$"):
            finset_pushout(f, g)

    @pytest.mark.parametrize(
        "domain, codomain, mapping, message",
        [
            (("a", "a"), ("t",), {"a": "t"}, "domain has repeated elements"),
            (("a",), ("t", "t"), {"a": "t"}, "codomain has repeated elements"),
            (("a", "b", "c"), ("t",), {"a": "t"}, "mapping is not total: missing ['b', 'c']"),
            (
                ("a", "b", "c"),
                ("t",),
                {"a": "t", "b": "x", "c": "y"},
                "image of 'b' lies outside the codomain",
            ),
        ],
    )
    def test_error_messages_are_unchanged(self, domain, codomain, mapping, message):
        with pytest.raises(FinSetError) as err:
            FinSetMap(domain, codomain, mapping)
        assert str(err.value) == message
