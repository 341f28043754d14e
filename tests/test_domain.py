import pytest
from hypothesis import example, given, strategies as st

from atlas.domain import (
    AbstractValue,
    BOTTOM,
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    TemplateKind,
    abstract,
    best_abstraction,
    char_eq,
    char_neq,
    gamma_contains,
    len_eq,
    len_neq,
    meet,
    predicate_to_text,
    template_from_text,
    template_to_text,
)

from oracles import full_abstraction, pred_holds, predicate_from_text

POOL = ConstantPool.default(["CAV2018", "510.220.5586"])


class TestGamma:
    def test_len_eq(self):
        assert gamma_contains(AbstractValue.of([len_eq(5)]), "CAV18")

    def test_len_neq_refutes(self):
        assert not gamma_contains(AbstractValue.of([len_neq(7)]), "CAV2018")

    def test_char_eq(self):
        assert gamma_contains(AbstractValue.of([char_eq(0, ord("C"))]), "CAV")

    def test_char_eq_false_beyond_length(self):
        assert not gamma_contains(AbstractValue.of([char_eq(5, ord("x"))]), "abc")

    def test_char_neq_true_beyond_length(self):
        assert gamma_contains(AbstractValue.of([char_neq(5, ord("x"))]), "abc")

    def test_top_and_bottom(self):
        assert gamma_contains(AbstractValue.top(), "anything")
        assert not gamma_contains(BOTTOM, "")


class TestAbstract:
    def test_len_eq_singleton(self):
        assert abstract("abc", LEN_EQ, POOL) == [len_eq(3)]

    def test_len_eq_example_pair(self):
        assert abstract("de", LEN_EQ, POOL) == [len_eq(2)]

    def test_len_neq_enumerates_pool(self):
        pool = ConstantPool(lengths=(0, 1, 2, 3, 4), indices=(), chars=())
        got = abstract("ab", LEN_NEQ, pool)
        # Independent oracle: brute force over the pool, excluding the length.
        assert got == [len_neq(k) for k in range(5) if k != 2]

    def test_char_eq_all_positions(self):
        got = abstract("ab", CHAR_EQ, POOL)
        assert got == [char_eq(0, ord("a")), char_eq(1, ord("b"))]

    def test_top(self):
        (p,) = abstract("x", TOP, POOL)
        assert p.kind is TemplateKind.TOP

    @given(st.text(max_size=12), st.sampled_from(sorted(TemplateKind)))
    def test_soundness(self, s, template):
        for p in abstract(s, template, POOL):
            assert pred_holds(p, s)

    @given(st.text(min_size=0, max_size=10))
    def test_len_eq_is_strongest(self, s):
        # Best-ness: the equality abstraction implies every satisfied instance.
        (p,) = abstract(s, LEN_EQ, POOL)
        for k in range(0, 14):
            if pred_holds(len_eq(k), s):
                assert p == len_eq(k)


class TestMeet:
    def test_top_identity(self):
        v = AbstractValue.of([len_eq(3)])
        assert meet(AbstractValue.top(), v) == v

    def test_len_conflict(self):
        assert meet(AbstractValue.of([len_eq(3)]), AbstractValue.of([len_eq(5)])) is BOTTOM

    def test_compatible_conjuncts(self):
        got = meet(
            AbstractValue.of([len_eq(3)]),
            AbstractValue.of([char_eq(1, ord("x"))]),
        )
        assert got.conjuncts == {len_eq(3), char_eq(1, ord("x"))}

    def test_char_conflicts(self):
        a = AbstractValue.of([char_eq(0, ord("a"))])
        assert meet(a, AbstractValue.of([char_neq(0, ord("a"))])) is BOTTOM
        assert meet(a, AbstractValue.of([char_eq(0, ord("b"))])) is BOTTOM

    def test_char_index_beyond_length(self):
        assert meet(
            AbstractValue.of([len_eq(2)]),
            AbstractValue.of([char_eq(5, ord("a"))]),
        ) is BOTTOM

    def test_len_eq_neq_conflict(self):
        assert meet(AbstractValue.of([len_eq(3)]), AbstractValue.of([len_neq(3)])) is BOTTOM

    def test_bottom_absorbs(self):
        assert meet(BOTTOM, AbstractValue.top()) is BOTTOM

    @given(st.text(max_size=10), st.text(max_size=6), st.text(max_size=6))
    def test_meet_is_intersection_on_samples(self, s, a_str, b_str):
        a = best_abstraction(a_str, [LEN_EQ, CHAR_EQ], POOL)
        b = best_abstraction(b_str, [LEN_NEQ, CHAR_NEQ], POOL)
        both = meet(a, b)
        assert gamma_contains(both, s) == (gamma_contains(a, s) and gamma_contains(b, s))


class TestMakeSymbolic:
    """Forgetting a predicate's integer constants (its ``kind``, which is its
    template) is how interpolation turns interpolant facts into new
    templates."""

    def test_len_neq(self):
        assert len_neq(7).kind is LEN_NEQ

    def test_len_eq(self):
        assert len_eq(3).kind is LEN_EQ

    def test_char_eq(self):
        assert char_eq(2, ord("V")).kind is CHAR_EQ

    @given(st.sampled_from([LEN_EQ, LEN_NEQ]), st.integers(0, 20))
    def test_round_trip_through_instantiation(self, t, k):
        assert t.instantiate((k,)).kind is t


class TestTextFormat:
    @pytest.mark.parametrize(
        "pred,text",
        [
            (len_eq(3), "(len = 3)"),
            (len_neq(7), "(len != 7)"),
            (char_eq(0, ord("C")), "(char 0 = 'C')"),
            (char_neq(3, ord("-")), "(char 3 != '-')"),
        ],
    )
    def test_predicate_text(self, pred, text):
        assert predicate_to_text(pred) == text
        assert predicate_from_text(text) == pred

    def test_awkward_characters(self):
        for c in ("'", "\\", "\n"):
            p = char_eq(1, ord(c))
            assert predicate_from_text(predicate_to_text(p)) == p

    def test_template_text_round_trip(self):
        for t in TemplateKind:
            assert template_from_text(template_to_text(t)) == t
            assert str(t) == f"{t}" == template_to_text(t)

    def test_templates_sort_by_value(self):
        # The order of bundle templates and of the slot ids that seed training.
        assert sorted(TemplateKind) == [CHAR_EQ, CHAR_NEQ, LEN_EQ, LEN_NEQ, TOP]
        assert [t.holes for t in sorted(TemplateKind)] == [2, 2, 1, 1, 0]


class TestBestAbstraction:
    def test_strongest_under_domain(self):
        v = best_abstraction("ab", [TOP, LEN_EQ, CHAR_EQ], POOL)
        assert len_eq(2) in v.conjuncts
        assert char_eq(0, ord("a")) in v.conjuncts

    @given(st.text(max_size=10))
    def test_contains_own_value(self, s):
        v = best_abstraction(s, sorted(TemplateKind), POOL)
        assert gamma_contains(v, s)

    def test_reduced_drops_the_implied_inequalities(self):
        full = full_abstraction("ab", TemplateKind, POOL)
        reduced = best_abstraction("ab", TemplateKind, POOL)
        assert reduced.conjuncts == {len_eq(2), char_eq(0, ord("a")), char_eq(1, ord("b"))}
        assert reduced.conjuncts < full.conjuncts

    @given(
        st.text(alphabet="abz", max_size=8),
        st.sets(st.sampled_from(sorted(TemplateKind))),
        st.lists(st.integers(0, 9)),
        st.lists(st.integers(0, 10)),
        st.lists(st.sampled_from("abzq")),
    )
    @example("ab", {LEN_NEQ, CHAR_NEQ}, [3, 1, 1, 0], [5, 0, 2, 0], ["z", "a", "z"])
    def test_is_the_conjunction_of_the_unimplied_facts(self, s, templates, indices, lengths, chars):
        # Indices with gaps, in any order, make one run per run of consecutive
        # indices; pool constants in any order, repeated or not, give the
        # sorted, distinct facts of ``state_of``'s form.
        pool = ConstantPool(tuple(lengths), tuple(indices), tuple(map(ord, chars)))
        implied = {LEN_NEQ} if LEN_EQ in templates else set()
        implied |= {CHAR_NEQ} if CHAR_EQ in templates else set()
        facts = [p for t in templates - implied if t is not TOP for p in abstract(s, t, pool)]
        assert best_abstraction(s, templates, pool) == AbstractValue.of(facts)

    def test_reduced_keeps_inequalities_without_their_equality(self):
        templates = [TOP, LEN_NEQ, CHAR_NEQ]
        assert best_abstraction("ab", templates, POOL) == full_abstraction("ab", templates, POOL)

    @given(
        st.text(alphabet="abz", max_size=5),
        st.text(alphabet="abz", max_size=7),
        st.sets(st.sampled_from([LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ])),
    )
    def test_reduced_has_the_same_concretization(self, s, t, templates):
        pool = ConstantPool.default(["abz"])
        full = full_abstraction(s, templates, pool)
        reduced = best_abstraction(s, templates, pool)
        assert gamma_contains(reduced, t) == gamma_contains(full, t)
