"""Graded vectors: canonical storage, degrees, grading action, serialization."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxfact.graded import (GradedVector, ProductVector, mono_text, parse_mono,
                            parse_token)
from voxfact.scalars import DegreeWindow, QQi

monos = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(min_value=1, max_value=4)),
    max_size=3,
).map(lambda fs: tuple(sorted(fs, key=lambda f: (-f[1], f[0]))))

coeffs = st.builds(QQi, st.fractions(min_value=-20, max_value=20, max_denominator=6),
                   st.fractions(min_value=-20, max_value=20, max_denominator=6))

vectors = st.dictionaries(monos, coeffs, max_size=4).map(GradedVector)


def test_no_zero_terms_stored():
    v = GradedVector({(("a", 1),): QQi(0), (("a", 2),): QQi(3)})
    assert (("a", 1),) not in v.terms
    assert len(v.terms) == 1


def test_vacuum_and_degree():
    assert GradedVector.vacuum().degree() == 0
    v = GradedVector.basis((("a", 3), ("a", 1)))
    assert v.degree() == 4
    mixed = v + GradedVector.basis((("a", 1),))
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.degree()


@given(vectors, vectors, coeffs)
def test_linearity(u, v, c):
    assert (u + v).scale(c) == u.scale(c) + v.scale(c)
    assert u - v == u + v.scale(QQi(-1))
    assert u + GradedVector.zero() == u


@given(vectors, coeffs, coeffs)
def test_grading_act_group_law(v, p, q):
    # q . (p . v) == (qp) . v on each graded piece
    if not p or not q:
        return
    assert v.grading_act(p).grading_act(q) == v.grading_act(p * q)


@given(vectors)
def test_projection_partition(v):
    total = GradedVector.zero()
    for d in v.degrees():
        piece = v.project(d)
        assert piece.is_homogeneous() or not piece
        total = total + piece
    assert total == v


@given(vectors)
def test_json_roundtrip(v):
    assert GradedVector.from_json(v.to_json()) == v


def test_token_parse():
    assert parse_token("a(-3)") == ("a", 3)
    with pytest.raises(ValueError):
        parse_token("a(3)")


@given(monos)
def test_mono_text_roundtrip(mono):
    assert parse_mono(mono_text(mono)) == mono


def test_mono_text_forms():
    assert mono_text(()) == "|0>" and parse_mono("") == ()
    assert mono_text((("a", 2), ("b", 1))) == "a(-2)b(-1)"
    assert parse_mono("a(-2) b(-1)") == (("a", 2), ("b", 1))
    for bad in ("a(2)", "a (-2)", "a(-1)|0>", "a(-1)\n"):
        with pytest.raises(ValueError):
            parse_mono(bad)
    with pytest.raises(ValueError):
        parse_token("a(-3)\n")


def test_product_vector_components():
    w = DegreeWindow(0, 3)
    pv = ProductVector(w)
    pv.set_component(2, GradedVector.basis((("a", 2),)))
    assert pv.component(2).degree() == 2
    assert not pv.component(1)
    flat = pv.flatten()
    assert flat == GradedVector.basis((("a", 2),))
    back = ProductVector.from_obj(pv.to_obj())
    assert all(back.component(k) == pv.component(k) for k in w.degrees())


def test_product_vector_homogeneity_enforced():
    pv = ProductVector(DegreeWindow(0, 3))
    with pytest.raises(ValueError):
        pv.set_component(1, GradedVector.basis((("a", 2),)))
