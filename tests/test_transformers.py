from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from atlas.cli import bundle_obj, canonical_json, load_bundle
from atlas.domain import (
    AbstractValue,
    CHAR_EQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    TOP_PRED,
    TemplateKind,
    char_eq,
    char_neq,
    gamma_contains,
    len_eq,
    len_neq,
    template_to_text,
)
from atlas.synthesizer import apply_transformer
from atlas.transformers import (
    ExampleSet,
    InsufficientRank,
    SamplingOracle,
    Transformer,
    TransformerTable,
    check_valid,
    column_rank,
    concat_construct,
    generate_examples,
    learn_transformers,
    row_valid,
    solve_linear,
    transformer_from_obj,
    transformer_to_obj,
)

from conftest import table_outputs, with_outputs, with_top_copies
from oracles import as_matrix, full_rank

POOL = ConstantPool.default(["CAV2018", "510.220.5586"])


def oracle(tag="t"):
    return SamplingOracle(0, "CAV2018510.-").child(tag)


def small_strings(max_len=4, alphabet="abz"):
    """Every string over ``alphabet`` up to ``max_len`` characters."""
    return ["".join(t) for n in range(max_len + 1) for t in product(alphabet, repeat=n)]


def small_predicates(extra_lengths=()):
    """Every predicate over lengths and indices 0-3 and the characters 'a' and 'b'."""
    preds = [TOP_PRED]
    for n in [*range(4), *extra_lengths]:
        preds += [len_eq(n), len_neq(n)]
    for i in range(4):
        for c in (ord("a"), ord("b")):
            preds += [char_eq(i, c), char_neq(i, c)]
    return preds


@st.composite
def int_systems(draw):
    """A small integer system (A, B); the narrow entry range makes rank deficiency common."""
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))

    def matrix(cols):
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=m, max_size=m))

    return matrix(n), matrix(k)


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m)))


def rank_by_minors(m) -> int:
    """Independent oracle: the order of the largest nonzero square minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if det([[m[i][j] for j in cols] for i in rows]) != 0:
                    return k
    return 0


class TestSolveLinear:
    def test_worked_system(self):
        p = solve_linear(as_matrix([[3, 2, 1], [1, 4, 1], [6, 4, 1]]), as_matrix([[5], [5], [10]]))
        assert p == ((Fraction(1), Fraction(1), Fraction(0)),)

    def test_inconsistent_is_null(self):
        assert solve_linear(as_matrix([[1]]), as_matrix([[2]])) is not None
        assert solve_linear(as_matrix([[1], [1]]), as_matrix([[2], [3]])) is None

    def test_constant_function(self):
        p = solve_linear(as_matrix([[0, 1]]), as_matrix([[7]]))
        assert p == ((Fraction(0), Fraction(7)),)

    def test_exactness_no_rounding(self):
        a = as_matrix([[2, 1], [5, 1]])
        b = as_matrix([[1], [2]])
        p = solve_linear(a, b)
        for row_a, row_b in zip(a, b):
            assert sum(x * y for x, y in zip(row_a, p[0])) == row_b[0]

    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_recovers_planted_affine_map(self, points, m, c):
        a = as_matrix([[x, 1] for x, _ in points])
        b = as_matrix([[m * x + c] for x, _ in points])
        p = solve_linear(a, b)
        assert p is not None
        for row_a, row_b in zip(a, b):
            assert sum(x * y for x, y in zip(row_a, p[0])) == row_b[0]

    def test_column_rank(self):
        assert column_rank(as_matrix([[3, 2, 1], [1, 4, 1], [6, 4, 1]])) == 3
        assert column_rank(as_matrix([[1, 1], [2, 2]])) == 1

    @given(int_systems())
    def test_column_rank_is_largest_nonzero_minor(self, system):
        a, _ = system
        assert column_rank(a) == rank_by_minors(a)

    @given(int_systems())
    def test_solve_linear_iff_consistent(self, system):
        a, b = system
        p = solve_linear(a, b)
        augmented = [row_a + row_b for row_a, row_b in zip(a, b)]
        if rank_by_minors(a) < rank_by_minors(augmented):  # Rouche-Capelli: inconsistent
            assert p is None
        else:
            assert p is not None
            for row_a, row_b in zip(a, b):
                assert [sum(x * y for x, y in zip(row_a, row_p)) for row_p in p] == row_b



class TestSamplingOracle:
    def test_deterministic_given_seed(self):
        a = SamplingOracle(7, "xy")
        b = SamplingOracle(7, "xy")
        assert [a.draw_string() for _ in range(20)] == [b.draw_string() for _ in range(20)]

    def test_child_oracles_differ(self):
        a = SamplingOracle(7, "xy")
        one, two = a.child("one"), a.child("two")
        assert [one.draw_string() for _ in range(5)] != [two.draw_string() for _ in range(5)]

    def test_finite_support(self):
        a = SamplingOracle(3, "ab")
        for _ in range(200):
            s = a.draw_string()
            assert len(s) <= 12 and set(s) <= set(a.alphabet)


class TestGenerateExamples:
    def test_concat_length_rows(self):
        ex = generate_examples(concat_construct(), LEN_EQ, (LEN_EQ, LEN_EQ), oracle(), POOL)
        assert full_rank(ex)
        for (p1, p2), p0 in ex.rows:
            assert p0.args[0] == p1.args[0] + p2.args[0]

    def test_counterfactual_rows_reach_full_rank(self):
        ex = generate_examples(concat_construct(), LEN_NEQ, (LEN_EQ, LEN_NEQ), oracle(), POOL)
        assert full_rank(ex)
        for (p1, p2), p0 in ex.rows:
            assert p0.args[0] == p1.args[0] + p2.args[0]

    def test_no_affine_function_insufficient_rank(self):
        with pytest.raises(InsufficientRank):
            generate_examples(concat_construct(), LEN_EQ, (LEN_NEQ, LEN_NEQ), oracle(), POOL)

    def test_rows_are_sound_instances(self):
        # Every generated row holds of every pair of small strings its inputs admit.
        strings = small_strings()
        for chi0, chis in [(LEN_EQ, (LEN_EQ, LEN_EQ)), (LEN_NEQ, (LEN_EQ, LEN_NEQ)), (LEN_NEQ, (LEN_NEQ, LEN_EQ))]:
            ex = generate_examples(concat_construct(), chi0, chis, oracle(), POOL)
            checked = 0
            for (p1, p2), p0 in ex.rows:
                for a, b in product(strings, repeat=2):
                    if gamma_contains(p1, a) and gamma_contains(p2, b):
                        assert gamma_contains(p0, a + b)
                        checked += 1
            assert checked > 0


class TestRowValid:
    def test_agrees_with_brute_force(self):
        """``row_valid`` against every pair of strings of length <= 4 over
        "abz": the predicates name only 'a' and 'b', so 'z' is a fresh
        character, and their constants are at most 3."""
        strings = small_strings()
        inputs, outputs = small_predicates(), small_predicates(extra_lengths=[-1])
        ys = {a + b for a in strings for b in strings}
        fails = {q: frozenset(y for y in ys if not gamma_contains(q, y)) for q in outputs}
        admitted = {p: [s for s in strings if gamma_contains(p, s)] for p in inputs}
        mismatches = []
        for p1, p2 in product(inputs, repeat=2):
            concats = {a + b for a in admitted[p1] for b in admitted[p2]}
            for q in outputs:
                if row_valid((p1, p2), q) != concats.isdisjoint(fails[q]):
                    mismatches.append((str(p1), str(p2), str(q)))
        assert len(inputs) ** 2 * len(outputs) == 16_875
        assert mismatches == []


LENGTH_TEMPLATES = (TOP, LEN_EQ, LEN_NEQ)


def valid_over_box(chis, chi0, p, bound):
    """The row check on every instantiation of ``chis`` with constants 0..bound."""
    per_arg = [[TOP_PRED] if t is TOP else [t.instantiate((v,)) for v in range(bound + 1)] for t in chis]
    for sel in product(*per_arg):
        vec = [v for q in sel for v in q.args] + [1]
        if not row_valid(sel, chi0.instantiate((sum(a * b for a, b in zip(p[0], vec)),))):
            return False
    return True


class TestCheckValid:
    def test_sum_matrix_is_valid(self):
        p = as_matrix([[1, 1, 0]])
        assert check_valid((LEN_EQ, LEN_EQ), LEN_EQ, p)

    def test_projection_matrix_is_refuted(self):
        p = as_matrix([[1, 0, 0]])
        assert not check_valid((LEN_EQ, LEN_EQ), LEN_EQ, p)

    def test_top_output_always_valid(self):
        assert check_valid((TOP, TOP), TOP, ())

    def test_unsound_neq_pair_refuted(self):
        # len(y) != c1+c2 is unsound when both inputs are inequalities.
        p = as_matrix([[1, 1, 0]])
        assert not check_valid((LEN_NEQ, LEN_NEQ), LEN_NEQ, p)

    def test_offset_refuted_where_it_first_fails(self):
        # len(y) != x + y - 40 fails on a = b = "" with y = 40.
        p = as_matrix([[1, 1, -40]])
        assert valid_over_box((LEN_EQ, LEN_NEQ), LEN_NEQ, p, 39)
        assert not valid_over_box((LEN_EQ, LEN_NEQ), LEN_NEQ, p, 40)
        assert not check_valid((LEN_EQ, LEN_NEQ), LEN_NEQ, p)

    def test_char_shift_is_valid(self):
        p = as_matrix([[1, 1, 0, 0], [0, 0, 1, 0]])
        assert check_valid((LEN_EQ, CHAR_EQ), CHAR_EQ, p)
        assert not check_valid((LEN_EQ, CHAR_EQ), CHAR_EQ, as_matrix([[1, 1, 0, 0], [0, 0, 0, 97]]))

    def test_agrees_with_larger_box_on_length_slots(self):
        """Small coefficients over constants 0-12, and sum-plus-offset maps
        with offsets -20..20 over constants 0-25."""
        cases = []
        for chis in product(LENGTH_TEMPLATES, repeat=2):
            n = sum(t.holes for t in chis)
            for chi0 in (LEN_EQ, LEN_NEQ):
                cases += [(chis, chi0, (row,), 12) for row in product((-1, 0, 1), repeat=n + 1)]
                cases += [(chis, chi0, ((1,) * n + (c,),), 25) for c in range(-20, 21) if abs(c) > 1]
        disagreements = [
            (chis, chi0, p) for chis, chi0, p, bound in cases if check_valid(chis, chi0, p) != valid_over_box(chis, chi0, p, bound)
        ]
        assert len(cases) == 978
        assert disagreements == []


class TestLearnTransformers:
    def test_length_domain_table_matches_known_rows(self, table_a1):
        def outputs(*kinds):
            t = table_a1.lookup(kinds)
            return set(t.outputs)

        one_one_zero = as_matrix([[1, 1, 0]])
        assert outputs(LEN_EQ, LEN_EQ) == {(LEN_EQ, one_one_zero)}
        assert outputs(LEN_EQ, LEN_NEQ) == {(LEN_NEQ, one_one_zero)}
        assert outputs(LEN_NEQ, LEN_EQ) == {(LEN_NEQ, one_one_zero)}
        for kinds in [(TOP, TOP), (TOP, LEN_EQ), (TOP, LEN_NEQ), (LEN_EQ, TOP), (LEN_NEQ, TOP), (LEN_NEQ, LEN_NEQ)]:
            assert table_a1.lookup(kinds) is None  # no outputs, so not stored

    def test_char_domain_has_shift_row(self, table_a2):
        t = table_a2.lookup((LEN_EQ, CHAR_EQ))
        assert (CHAR_EQ, as_matrix([[1, 1, 0, 0], [0, 0, 1, 0]])) in t.outputs

    def test_same_seed_same_table(self, learn_env):
        _, pool = learn_env
        templates = [TOP, LEN_EQ, LEN_NEQ]
        t1 = learn_transformers(templates, SamplingOracle(5, "ab"), pool, {})
        t2 = learn_transformers(templates, SamplingOracle(5, "ab"), pool, {})
        assert [transformer_to_obj(x) for x in t1.all()] == [transformer_to_obj(x) for x in t2.all()]

    def test_only_concat_is_learned(self, table_a2):
        # Validity is decided for concat semantics only: a table keeps nothing else.
        assert all(len(t.inputs) == 2 and transformer_to_obj(t)["op"] == "concat" for t in table_a2.all())
        for outputs in (((LEN_EQ, ((1, 0),)),), ()):
            with pytest.raises(ValueError, match="takes 2 input templates"):
                TransformerTable().add(Transformer((LEN_EQ,), outputs))
        rev = dict(transformer_to_obj(table_a2.lookup((LEN_EQ, LEN_EQ))), op="rev")
        with pytest.raises(ValueError, match="concat only"):
            transformer_from_obj(rev)

    def test_every_slot_emitted(self, table_a1, learn_env):
        # Every slot with an output is stored, and only those.
        oracle, pool = learn_env
        cache = {}
        assert objs(learn_transformers([TOP, LEN_EQ, LEN_NEQ], oracle, pool, cache)) == objs(table_a1)
        assert len(cache) == 3 * 3 * 2
        learned = {tuple(slot.split("|")[1].split(",")) for slot, output in cache.items() if output is not None}
        stored = {tuple(k.value for k in kinds) for kinds in table_a1.entries}
        assert stored == learned == {("len-eq", "len-eq"), ("len-eq", "len-neq"), ("len-neq", "len-eq")}
        for k1 in (TOP, LEN_EQ, LEN_NEQ):
            for k2 in (TOP, LEN_EQ, LEN_NEQ):
                entry = table_a1.lookup((k1, k2))
                assert entry is None or entry.outputs


def objs(table):
    return [transformer_to_obj(t) for t in table.all()]


def concat_table(*entries):
    """A table of concat entries given as ``(left, right, ((template, rows), ...))``."""
    return TransformerTable(Transformer((x, y), outputs) for x, y, outputs in entries)


class TestNormalizedTable:
    def test_learned_tables_are_normalized(self, table_a1, table_a2):
        for table in (table_a1, table_a2):
            assert objs(table.normalized()) == objs(table)
        # Only the entries with outputs are stored: 5 of the 25 pairs.
        assert len(table_a2) == 5 and all(t.outputs for t in table_a2.all())

    def test_drops_the_copies_of_the_top_entry(self, table_a2):
        old = with_top_copies(table_a2)
        assert len(table_outputs(old)) == len(table_outputs(table_a2)) + 4
        assert objs(old.normalized()) == objs(table_a2)

    def test_keeps_an_output_the_top_entry_lacks(self, table_a2):
        old = with_top_copies(table_a2)
        lacking = with_outputs(old, lambda t, o: t.inputs != (CHAR_EQ, TOP))
        assert objs(lacking.normalized()) == objs(lacking)

    def test_drops_along_a_chain_to_the_all_top_entry(self):
        # Each output reads neither argument; only the (top, top) one stays.
        length_of_y = ((LEN_EQ, ((0, 0, 5),)),)
        table = concat_table(
            (LEN_EQ, LEN_EQ, length_of_y),
            (LEN_EQ, TOP, ((LEN_EQ, ((0, 5),)),)),
            (TOP, TOP, ((LEN_EQ, ((5,),)),)),
        )
        assert table_outputs(table.normalized()) == [((TOP, TOP), (LEN_EQ, ((5,),)))]


class TestCompiledRules:
    def test_a_rule_added_after_use_is_applied(self):
        left, right = AbstractValue(frozenset([len_eq(3)])), AbstractValue(frozenset([len_eq(2)]))
        table = TransformerTable([Transformer((LEN_EQ, LEN_EQ), ())])
        assert apply_transformer(table, (left, right)) is AbstractValue.top()
        table.add(Transformer((LEN_EQ, LEN_EQ), ((LEN_EQ, ((1, 1, 0),)),)))
        assert apply_transformer(table, (left, right)).conjuncts == {len_eq(5)}
        # An empty entry added later removes the rule.
        table.add(Transformer((LEN_EQ, LEN_EQ), ()))
        assert len(table) == 0 and apply_transformer(table, (left, right)) is AbstractValue.top()

    def test_only_entries_with_outputs_are_compiled(self, trained, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(canonical_json(bundle_obj(trained.templates, trained.table, 0, ["e1", "e2", "e3"])))
        for table in (trained.table, trained.table.normalized(), load_bundle(path)[1]):
            # Every stored entry has outputs, and each is compiled.
            assert len(table) == len(table.rules) == 5 and all(t.outputs for t in table.all())
            assert table.rules == [(*t.inputs, *t.used_arguments, t.outputs) for t in table.all()]


class TestSerialization:
    def test_round_trip(self, table_a1):
        for t in table_a1.all():
            assert transformer_from_obj(transformer_to_obj(t)) == t

    def test_loads_entries_with_retired_keys(self, table_a1):
        # Older bundles carry per-entry "validated_samples" and "seed".
        for t in table_a1.all():
            obj = dict(transformer_to_obj(t), validated_samples=2000, seed=0)
            assert transformer_from_obj(obj) == t

    def test_matrix_pairs(self, table_a1):
        t = table_a1.lookup((LEN_EQ, LEN_EQ))
        obj = transformer_to_obj(t)
        assert obj["outputs"][0]["matrix"] == [[[1, 1], [1, 1], [0, 1]]]


class TestExampleSetMatrices:
    def test_shapes(self):
        ex = ExampleSet((LEN_EQ, LEN_EQ), LEN_EQ)
        ex.rows.append(((len_eq(3), len_eq(2)), len_eq(5)))
        assert ex.matrix_a() == [[Fraction(3), Fraction(2), Fraction(1)]]
        assert ex.matrix_b() == [[Fraction(5)]]
        assert ex.n_constants == 2
