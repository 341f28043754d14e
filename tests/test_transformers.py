import json
import re
import sys
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from atlas.cli import bundle_obj, canonical_json, load_bundle, main
from atlas.corpus import corpus_dir
from atlas.driver import TrainConfig, corpus_alphabet, learn_abstractions
from atlas.domain import (
    AbstractValue,
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    TOP_PRED,
    TemplateKind,
    abstract,
    char_eq,
    char_neq,
    len_eq,
    len_neq,
    template_to_text,
)
from atlas import transformers
from atlas.synthesizer import apply_transformer
from atlas.transformers import (
    FILLABLE,
    EmptySlot,
    SamplingOracle,
    Transformer,
    TransformerTable,
    check_valid,
    column_rank,
    counterexample,
    generate_examples,
    learn_transformers,
    row_valid,
    solve_linear,
    transformer_from_obj,
    transformer_to_obj,
)

from conftest import entries_with_top_copies, entry_outputs, outputs_kept, table_outputs
from oracles import as_matrix, fold, full_rank, pred_holds
import test_golden_slots

POOL = ConstantPool.default(["CAV2018", "510.220.5586"])


def oracle():
    """The parent oracle of the slots ``generate_examples`` is given here."""
    return SamplingOracle(0, "CAV2018510.-")


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


@st.composite
def square_systems(draw):
    """A small square integer system (A, B)."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 2))

    def matrix(cols):
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=n, max_size=n))

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


def cramer(a, b):
    """Independent oracle: the integral solution of the square system
    (A, B) with det A != 0 by Cramer's rule, or None if it is not integral."""
    d = det(a)
    solution = []
    for j in range(len(b[0])):
        x = []
        for i in range(len(a)):
            q, r = divmod(det([[*row[:i], rb[j], *row[i + 1 :]] for row, rb in zip(a, b)]), d)
            if r:
                return None
            x.append(q)
        solution.append(tuple(x))
    return tuple(solution)


def satisfies_map(basis, p) -> bool:
    """Whether every row ``[a | b]`` of ``basis`` has b = P a."""
    n = len(p[0])
    return all([sum(x * y for x, y in zip(row, p_row)) for p_row in p] == row[n:] for row in basis.values())


class TestSolveLinear:
    def test_worked_system(self):
        p = solve_linear(fold([[3, 2, 1], [1, 4, 1], [6, 4, 1]], [[5], [5], [10]]))
        assert p == ((1, 1, 0),)

    def test_non_integral_is_null(self):
        assert solve_linear(fold([[1]], [[2]])) == ((2,),)
        assert solve_linear(fold([[2]], [[3]])) is None

    def test_constant_function(self):
        p = solve_linear(fold([[0, 1], [1, 1]], [[7], [7]]))
        assert p == ((0, 7),)

    def test_exactness_no_rounding(self):
        # x = (1/3, 1/3) is not rounded to an integer map ...
        assert solve_linear(fold([[2, 1], [5, 1]], [[1], [2]])) is None
        # ... while the same A with an integral solution is solved exactly.
        assert solve_linear(fold([[2, 1], [5, 1]], [[3], [6]])) == ((1, 1),)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_recovers_planted_affine_map(self, xs, m, c):
        basis = fold([[x, 1] for x in xs], [[m * x + c] for x in xs])
        if len(set(xs)) < 2:
            assert len(basis) == 1
        else:
            assert len(basis) == 2 and solve_linear(basis) == ((m, c),)

    def test_column_rank(self):
        assert column_rank(as_matrix([[3, 2, 1], [1, 4, 1], [6, 4, 1]])) == 3
        assert column_rank(as_matrix([[1, 1], [2, 2]])) == 1

    @given(int_systems())
    def test_column_rank_is_largest_nonzero_minor(self, system):
        a, _ = system
        assert column_rank(a) == rank_by_minors(a)

    @given(square_systems())
    def test_solve_linear_matches_cramer(self, system):
        a, b = system
        assume(det(a) != 0)
        p = solve_linear(fold(a, b))
        assert p == cramer(a, b)
        if p is not None:
            assert [[sum(x * y for x, y in zip(row_a, row_p)) for row_p in p] for row_a in a] == b


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


def kept_rows(monkeypatch) -> list:
    """The rows that ``row_valid`` accepts from now on, in order."""
    kept = []

    def recording(inputs, output):
        valid = row_valid(inputs, output)
        if valid:
            kept.append((inputs, output))
        return valid

    monkeypatch.setattr(transformers, "row_valid", recording)
    return kept


class TestGenerateExamples:
    def test_concat_length_rows(self):
        basis = generate_examples(LEN_EQ, (LEN_EQ, LEN_EQ), oracle(), POOL, "t")
        assert full_rank(basis.values(), 3)
        assert satisfies_map(basis, [[1, 1, 0]])

    def test_counterfactual_rows_reach_full_rank(self):
        basis = generate_examples(LEN_NEQ, (LEN_EQ, LEN_NEQ), oracle(), POOL, "t")
        assert full_rank(basis.values(), 3)
        assert satisfies_map(basis, [[1, 1, 0]])

    def test_no_affine_function_insufficient_rank(self):
        with pytest.raises(EmptySlot):
            generate_examples(LEN_EQ, (LEN_NEQ, LEN_NEQ), oracle(), POOL, "t")

    def test_admitted_slot_stalls(self, monkeypatch):
        # Every draw is "", so the rows of (len =, len =) -> len = stay at rank 1.
        monkeypatch.setattr(SamplingOracle, "draw_string", lambda self: "")
        with pytest.raises(EmptySlot, match="no rank progress after 25 samples"):
            generate_examples(LEN_EQ, (LEN_EQ, LEN_EQ), oracle(), POOL, "t")

    def test_inconsistent_system_ends_the_slot(self, monkeypatch):
        # With every row accepted, (char i = c),(top) -> char i = c also
        # keeps rows whose output character is not the first input's, and
        # no affine map fits them all.
        monkeypatch.setattr(transformers, "row_valid", lambda inputs, output: True)
        with pytest.raises(EmptySlot, match="inconsistent system"):
            generate_examples(CHAR_EQ, (CHAR_EQ, TOP), oracle(), POOL, "t")

    @pytest.mark.parametrize("chi0", list(TemplateKind), ids=lambda k: k.value)
    def test_refused_slot_draws_nothing(self, monkeypatch, chi0):
        # Every derivation and draw of any oracle, the slot's child included,
        # is recorded on the class (invariant fillable).
        calls = []
        for name in ("child", "draw_length", "draw_char", "draw_string"):
            method = getattr(SamplingOracle, name)
            monkeypatch.setattr(SamplingOracle, name, lambda self, *args, _name=name, _method=method: calls.append(_name) or _method(self, *args))
        for chis in product(TemplateKind, repeat=2):
            if chis in FILLABLE.get(chi0, ()):
                continue
            source = oracle()
            state = source.rng.getstate()
            with pytest.raises(EmptySlot, match="cannot reach full rank"):
                generate_examples(chi0, chis, source, POOL, "t")
            assert calls == [] and source.rng.getstate() == state, (chi0, chis)
        # The recorder sees a fillable slot derive its child and draw.
        generate_examples(LEN_EQ, (LEN_EQ, LEN_EQ), oracle(), POOL, "t")
        assert calls[0] == "child" and "draw_string" in calls

    def test_training_derives_an_oracle_only_for_a_fillable_slot(self, monkeypatch, training_problems):
        # Seed-0 training tries 100 slots and refuses 91 before deriving
        # their oracles (invariant fillable): 9 children are derived, one
        # per fillable slot.
        tried, derived = [], []
        generate, child = transformers.generate_examples, SamplingOracle.child
        monkeypatch.setattr(transformers, "generate_examples", lambda *args: tried.append(args) or generate(*args))
        monkeypatch.setattr(SamplingOracle, "child", lambda self, tag: derived.append(tag) or child(self, tag))
        learn_abstractions(training_problems, TrainConfig(seed=0))
        assert len(tried) == len({args[-1] for args in tried}) == 100
        fillable = [args[-1] for args in tried if args[1] in FILLABLE.get(args[0], ())]
        assert derived == fillable and len(derived) == 9

    def test_rows_are_sound_instances(self, monkeypatch):
        # Every row kept holds of every pair of small strings its inputs admit.
        strings = small_strings()
        kept = kept_rows(monkeypatch)
        for chi0, chis in [(LEN_EQ, (LEN_EQ, LEN_EQ)), (LEN_NEQ, (LEN_EQ, LEN_NEQ)), (LEN_NEQ, (LEN_NEQ, LEN_EQ))]:
            kept.clear()
            generate_examples(chi0, chis, oracle(), POOL, "t")
            checked = 0
            for (p1, p2), p0 in kept:
                assert (p1.kind, p2.kind, p0.kind) == (*chis, chi0)
                for a, b in product(strings, repeat=2):
                    if pred_holds(p1, a) and pred_holds(p2, b):
                        assert pred_holds(p0, a + b)
                        checked += 1
            assert checked > 0


def all_rows(chis, chi0, strings, pool):
    """The valid rows ``generate_examples`` would build from every pair of
    ``strings``, with every abstraction of each value instead of a rotated
    cap of them."""
    rows = set()
    for a, b in product(strings, repeat=2):
        for sel in product(abstract(a, chis[0], pool), abstract(b, chis[1], pool)):
            if chi0 is LEN_NEQ:
                outputs = [len_neq(sum(p.args[0] if p.kind is LEN_NEQ else len(s) for s, p in zip((a, b), sel)))]
            else:
                outputs = abstract(a + b, chi0, pool)
            rows.update((sel, p0) for p0 in outputs if row_valid(sel, p0))
    return rows


class TestFillable:
    """``FILLABLE`` refuses exactly the slots that cannot reach full rank
    (invariant fillable)."""

    def test_rule_is_exact_on_small_strings(self):
        """For every output that is generated, the rows from every pair of
        strings of length <= 3 over "ab" reach full rank exactly when
        ``FILLABLE`` admits the slot."""
        strings = small_strings(max_len=3, alphabet="ab")
        pool = ConstantPool(tuple(range(5)), tuple(range(3)), (ord("a"), ord("b")))
        mismatches = []
        for chi0 in (LEN_EQ, LEN_NEQ, CHAR_EQ):
            for chis in product(TemplateKind, repeat=2):
                rows = [[*p1.args, *p2.args, 1] for (p1, p2), _ in all_rows(chis, chi0, strings, pool)]
                if full_rank(rows, sum(t.holes for t in chis) + 1) != (chis in FILLABLE[chi0]):
                    mismatches.append((chis, chi0))
        assert mismatches == []

    def test_admits_exactly_the_learned_slots(self):
        learned = {slot for slot, output in test_golden_slots.slot_map(0).items() if output is not None}
        admitted = {f"concat|{k1.value},{k2.value}|{chi0.value}" for chi0, pairs in FILLABLE.items() for k1, k2 in pairs}
        assert len(admitted) == 9 and admitted == learned


class TestRowValid:
    def test_agrees_with_brute_force(self):
        """``row_valid`` against every pair of strings of length <= 4 over
        "abz": the predicates name only 'a' and 'b', so 'z' is a fresh
        character, and their constants are at most 3."""
        strings = small_strings()
        inputs, outputs = small_predicates(), small_predicates(extra_lengths=[-1])
        ys = {a + b for a in strings for b in strings}
        fails = {q: frozenset(y for y in ys if not pred_holds(q, y)) for q in outputs}
        admitted = {p: [s for s in strings if pred_holds(p, s)] for p in inputs}
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
    """``check_valid`` decides soundness for all constants, and
    ``counterexample`` names where it fails (invariant exact-check)."""

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

    def test_an_offset_past_the_box_fails_at_len_a_5(self):
        # len(a + b) != 3 len(a) + len(b) - 10 is false when len(a) = 5.
        assert not row_valid((len_eq(5), len_eq(0)), len_neq(5))

    def test_refutes_an_offset_that_fails_past_the_box(self):
        assert not check_valid((LEN_EQ, LEN_EQ), LEN_NEQ, as_matrix([[3, 1, -10]]))

    @pytest.mark.parametrize(
        "chis, chi0, row, witness",
        [
            # len(a + b) != 3 len(a) + len(b) - 10: the bundle entry of ROADMAP's "Found".
            ((LEN_EQ, LEN_EQ), LEN_NEQ, [3, 1, -10], ((len_eq(5), len_eq(0)), (5,))),
            ((LEN_EQ, LEN_NEQ), LEN_NEQ, [1, 1, -40], ((len_eq(0), len_neq(40)), (0,))),
            ((LEN_EQ, LEN_EQ), LEN_EQ, [1, 0, 0], ((len_eq(0), len_eq(1)), (0,))),
        ],
        ids=["found-offset", "offset-40", "projection"],
    )
    def test_refutes_with_a_witness_row_valid_rejects(self, chis, chi0, row, witness):
        assert counterexample(chis, chi0, as_matrix([row])) == witness
        inputs, args = witness
        assert not row_valid(inputs, chi0.instantiate(args))

    def test_proves_every_entry_learned_at_three_seeds(self, trained_at):
        for seed in (0, 1, 705):
            outputs = entry_outputs(entries_with_top_copies(trained_at[seed].table))
            assert len(outputs) == 9
            assert [(inputs, chi) for inputs, (chi, m) in outputs if not check_valid(inputs, chi, m)] == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_row_valid_on_random_instantiations(self, data):
        """An accepted length matrix holds at random constants; a refuted one
        fails at its witness.  The inputs range over every kind, as each
        admits a set of lengths."""
        kinds = st.sampled_from(sorted(TemplateKind))
        chis = data.draw(st.tuples(kinds, kinds))
        chi0 = data.draw(st.sampled_from((LEN_EQ, LEN_NEQ)))
        n = sum(t.holes for t in chis)
        row = (*data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), data.draw(st.integers(-30, 30)))
        witness = counterexample(chis, chi0, (row,))
        assert check_valid(chis, chi0, (row,)) == (witness is None)
        if witness is not None:
            inputs, args = witness
            assert not row_valid(inputs, chi0.instantiate(args))
            return
        for _ in range(10):
            x = data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
            k = chis[0].holes
            inputs = (chis[0].instantiate(tuple(x[:k])), chis[1].instantiate(tuple(x[k:])))
            assert row_valid(inputs, chi0.instantiate((sum(a * b for a, b in zip(row, [*x, 1])),)))

    def test_decides_huge_coefficients_in_milliseconds(self):
        """No step of the decision counts up to a coefficient."""
        big = 10**18
        cases = [
            # 10^18 n - (10^18 - 1) m = 5 has solutions in N^2; 2 * 10^18 (n - m) = -1 has none.
            ((LEN_EQ, LEN_EQ), [big + 1, 2 - big, -5], True),
            ((LEN_EQ, LEN_EQ), [2 * big + 1, 1 - 2 * big, 1], False),
            ((LEN_EQ, LEN_NEQ), [big, 1 - big, 7], True),
            ((LEN_NEQ, LEN_NEQ), [big + 1, -big, 3], True),
            ((LEN_NEQ, LEN_EQ), [-big, -big, -1], False),
            ((CHAR_EQ, LEN_NEQ), [big, -big, 3, 1, -5], True),
        ]
        for chis, row, refuted in cases:
            start = time.perf_counter()
            witness = counterexample(chis, LEN_NEQ, (tuple(row),))
            assert time.perf_counter() - start < 0.1
            assert (witness is not None) == refuted
            if witness is not None:
                inputs, args = witness
                assert not row_valid(inputs, len_neq(*args))

    def test_character_codes_end_at_maxunicode(self):
        # len(a + b) != c - k, under a first input (char i = c), fails only where c - k >= 1.
        assert check_valid((CHAR_EQ, TOP), LEN_NEQ, ((0, 1, -sys.maxunicode),))
        facts, args = counterexample((CHAR_EQ, TOP), LEN_NEQ, ((0, 1, 1 - sys.maxunicode),))
        assert facts == (char_eq(0, sys.maxunicode), TOP_PRED) and args == (1,)

    def test_refutes_other_char_eq_shapes_at_0_or_a_unit_vector(self):
        for inputs, m in [
            ((CHAR_EQ, TOP), ((1, 0, 0), (0, 1, 1))),
            ((LEN_EQ, CHAR_EQ), ((1, 1, 0, 0), (0, 0, 0, 97))),
            ((LEN_EQ, CHAR_EQ), ((0, 1, 0, 0), (0, 0, 1, 0))),
            ((TOP, CHAR_EQ), ((1, 0, 0), (0, 1, 0))),
        ]:
            facts, args = counterexample(inputs, CHAR_EQ, m)
            assert set(sum((f.args for f in facts), ())) <= {0, 1}
            assert not row_valid(facts, char_eq(*args))

    def test_does_not_decide_a_char_neq_output(self):
        with pytest.raises(ValueError, match="not decided"):
            check_valid((CHAR_EQ, TOP), CHAR_NEQ, ((1, 0, 0), (0, 0, 0)))

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


def copy_matrix(width):
    """The matrix that keeps the first input's ``char =`` fact."""
    zeros = (0,) * (width - 2)
    return ((1, 0, *zeros), (0, 1, *zeros))


class TestCharEqShapes:
    """Every ``char =`` output that passes ``check_valid`` is a copy or a
    shift, the two rules ``TransformerTable`` compiles (invariant
    copy-or-shift)."""

    def test_check_valid_accepts_only_copy_and_shift(self):
        # Entries in {-1, 0, 1}; in {0, 1} for the wide matrices of pairs
        # other than (len =, char =) and (char =, len =), to keep the scan short.
        accepted = set()
        for inputs in product(sorted(TemplateKind), repeat=2):
            width = sum(k.holes for k in inputs) + 1
            values = (-1, 0, 1) if width <= 3 or set(inputs) == {LEN_EQ, CHAR_EQ} else (0, 1)
            for flat in product(values, repeat=2 * width):
                m = (flat[:width], flat[width:])
                if check_valid(inputs, CHAR_EQ, m):
                    accepted.add((inputs, m))
        copies = {((CHAR_EQ, k), copy_matrix(k.holes + 3)) for k in TemplateKind}
        assert accepted == copies | {((LEN_EQ, CHAR_EQ), ((1, 1, 0, 0), (0, 0, 1, 0)))}

    @pytest.mark.parametrize(
        "inputs, m",
        [
            ((CHAR_EQ, LEN_EQ), ((1, 0, -1, 0), (0, 1, 0, 0))),
            ((LEN_EQ, CHAR_EQ), ((1, 0, 0, 0), (0, 0, 1, 0))),
            ((CHAR_EQ, CHAR_EQ), ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0))),
            ((TOP, CHAR_EQ), ((1, 0, 0), (0, 1, 0))),
        ],
    )
    def test_table_refuses_another_shape(self, inputs, m):
        with pytest.raises(ValueError, match="is neither a copy nor a shift"):
            TransformerTable([Transformer(inputs, ((CHAR_EQ, m),))])

    def test_table_compiles_copies_and_the_shift(self, table_a2):
        assert table_a2.copies == [TOP] and table_a2.shift
        assert all(chi is not CHAR_EQ for _, _, outputs in table_a2.affine for chi, _ in outputs)
        # Without the (char =, top) copy, the copies for the other second inputs are kept.
        old = outputs_kept(entries_with_top_copies(table_a2), lambda t, o: t.inputs != (CHAR_EQ, TOP))
        assert sorted(TransformerTable(old).copies) == sorted(k for k in TemplateKind if k is not TOP)

    def test_bundle_with_another_shape_format_error(self, tmp_path, capsys):
        entry = {
            "inputs": ["(char i = c)", "(len = c)"],
            "outputs": [{"template": "(char i = c)", "matrix": [[1, 0, -1, 0], [0, 1, 0, 0]]}],
        }
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"templates": ["(char i = c)", "(len = c)", "top"], "transformers": [entry]}))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert "(char i = c),(len = c) -> (char i = c) with matrix [[1, 0, -1, 0], [0, 1, 0, 0]]" in err
        assert "Traceback" not in err


class TestLearnTransformers:
    def test_length_domain_table_matches_known_rows(self, table_a1):
        def outputs(*kinds):
            t = table_a1.entries.get(kinds)
            return set(t.outputs)

        one_one_zero = as_matrix([[1, 1, 0]])
        assert outputs(LEN_EQ, LEN_EQ) == {(LEN_EQ, one_one_zero)}
        assert outputs(LEN_EQ, LEN_NEQ) == {(LEN_NEQ, one_one_zero)}
        assert outputs(LEN_NEQ, LEN_EQ) == {(LEN_NEQ, one_one_zero)}
        for kinds in [(TOP, TOP), (TOP, LEN_EQ), (TOP, LEN_NEQ), (LEN_EQ, TOP), (LEN_NEQ, TOP), (LEN_NEQ, LEN_NEQ)]:
            assert table_a1.entries.get(kinds) is None  # no outputs, so not stored

    def test_char_domain_has_shift_row(self, table_a2):
        t = table_a2.entries.get((LEN_EQ, CHAR_EQ))
        assert (CHAR_EQ, as_matrix([[1, 1, 0, 0], [0, 0, 1, 0]])) in t.outputs

    def test_same_seed_same_table(self, learn_env):
        _, pool = learn_env
        templates = [TOP, LEN_EQ, LEN_NEQ]
        t1 = learn_transformers(templates, SamplingOracle(5, "ab"), pool, {})
        t2 = learn_transformers(templates, SamplingOracle(5, "ab"), pool, {})
        assert [transformer_to_obj(x) for x in t1.all()] == [transformer_to_obj(x) for x in t2.all()]

    def test_only_concat_is_learned(self, table_a2):
        # Validity is decided for concat semantics only: a table keeps nothing else.
        assert all(len(t.inputs) == 2 for t in table_a2.all())
        for outputs in (((LEN_EQ, ((1, 0),)),), ()):
            with pytest.raises(ValueError, match="takes 2 input templates"):
                TransformerTable([Transformer((LEN_EQ,), outputs)])

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
                entry = table_a1.entries.get((k1, k2))
                assert entry is None or entry.outputs


def objs(table):
    return [transformer_to_obj(t) for t in table.all()]


def concat_table(*entries):
    """A table of concat entries given as ``(left, right, ((template, rows), ...))``."""
    return TransformerTable(Transformer((x, y), outputs) for x, y, outputs in entries)


class TestNormalizedTable:
    """Tables keep only the outputs no entry with ``top`` in place of an
    unread argument has (invariant normalized-table)."""

    def test_learned_tables_are_normalized(self, table_a1, table_a2, trained_at, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(canonical_json(bundle_obj(trained_at[0].templates, trained_at[0].table, 0, ["e1", "e2", "e3"])))
        for table in (table_a1, table_a2, *(run.table for run in trained_at.values()), load_bundle(path)[1]):
            assert objs(TransformerTable(table.all())) == objs(table)
        # Only the entries with outputs are stored: 5 of the 25 pairs.
        assert len(table_a2) == 5 and all(t.outputs for t in table_a2.all())

    def test_drops_the_copies_of_the_top_entry(self, table_a2):
        old = entries_with_top_copies(table_a2)
        assert len(entry_outputs(old)) == len(table_outputs(table_a2)) + 4
        assert objs(TransformerTable(old)) == objs(table_a2)

    def test_keeps_an_output_the_top_entry_lacks(self, table_a2):
        lacking = outputs_kept(entries_with_top_copies(table_a2), lambda t, o: t.inputs != (CHAR_EQ, TOP))
        assert table_outputs(TransformerTable(lacking)) == entry_outputs(lacking)

    def test_drops_along_a_chain_to_the_all_top_entry(self):
        # Each output reads neither argument; only the (top, top) one stays.
        length_of_y = ((LEN_EQ, ((0, 0, 5),)),)
        table = concat_table(
            (LEN_EQ, LEN_EQ, length_of_y),
            (LEN_EQ, TOP, ((LEN_EQ, ((0, 5),)),)),
            (TOP, TOP, ((LEN_EQ, ((5,),)),)),
        )
        assert table_outputs(table) == [((TOP, TOP), (LEN_EQ, ((5,),)))]


class TestTableEntries:
    def test_only_entries_with_outputs_are_stored(self, trained, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(canonical_json(bundle_obj(trained.templates, trained.table, 0, ["e1", "e2", "e3"])))
        # Every pair of templates, with the old copies or empty, in reverse order.
        given = {t.inputs: t for t in entries_with_top_copies(trained.table)}
        dense = [given.get(k, Transformer(k, ())) for k in product(sorted(TemplateKind), repeat=2)][::-1]
        for table in (trained.table, TransformerTable(dense), load_bundle(path)[1]):
            assert len(table) == 5 and all(t.outputs for t in table.all())
            # Stored, and read, in sorted key order.
            assert list(table.entries) == sorted(table.entries)
            assert table.all() == list(table.entries.values())

    @pytest.mark.parametrize(
        "inputs, outputs, message",
        [
            ((TOP, CHAR_EQ), ((TOP, ()), (LEN_NEQ, ((1, 0, 0),))), "transformer top,(char i = c) has a top output"),
            (
                (CHAR_EQ, LEN_EQ),
                ((CHAR_NEQ, ((1, 0, -1, 0), (0, 1, 0, 0))),),
                "transformer (char i = c),(len = c) has a (char i != c) output",
            ),
            # Unsound: says a[i] is not U+0000.
            (
                (CHAR_EQ, TOP),
                ((CHAR_EQ, copy_matrix(3)), (CHAR_NEQ, ((1, 0, 0), (0, 0, 0)))),
                "transformer (char i = c),top has a (char i != c) output",
            ),
        ],
    )
    def test_refuses_a_top_or_char_neq_output(self, inputs, outputs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TransformerTable([Transformer(inputs, outputs)])

    def test_an_empty_entry_derives_nothing(self):
        left, right = AbstractValue.of([len_eq(3)]), AbstractValue.of([len_eq(2)])
        table = TransformerTable([Transformer((LEN_EQ, LEN_EQ), ())])
        assert len(table) == 0 and table.entries.get((LEN_EQ, LEN_EQ)) is None
        assert apply_transformer(table, (left, right)) is AbstractValue.top()
        table = TransformerTable([Transformer((LEN_EQ, LEN_EQ), ((LEN_EQ, ((1, 1, 0),)),))])
        assert apply_transformer(table, (left, right)).conjuncts == {len_eq(5)}


def test_learned_tables_keep_reduced_leaves_lossless(training_problems, learn_env):
    """Every table ``learn_transformers`` builds at seeds 0-39, over each of
    the 16 domains with top, with the oracle and pool training on e1-e3
    builds:

    - reads every non-top argument of each entry in some output, so
      ``apply_transformer`` maps no selection it could have collapsed;
    - has the form under which reduced leaves lose nothing (invariant
      reduced-leaves): no entry with a ``char !=`` input
      has an output, and each output of an entry with a ``len !=`` input is
      a ``len !=`` output with a nonzero coefficient on that constant whose
      matrix the entry with ``len =`` in its place has as a ``len =`` output.

    A slot's result depends only on the seed and its own templates, so one
    slot cache serves every domain at a seed.
    """
    _, pool = learn_env
    alphabet = corpus_alphabet(training_problems)
    learnable = [t for t in TemplateKind if t is not TOP]
    domains = [(TOP, *extra) for r in range(len(learnable) + 1) for extra in combinations(learnable, r)]
    assert len(domains) == 16
    for seed in range(40):
        oracle, cache = SamplingOracle(seed, alphabet), {}
        for domain in domains:
            table = learn_transformers(domain, oracle, pool, cache)
            for t in table.all():
                start = 0
                for j, x in enumerate(t.inputs):
                    col, start = start, start + x.holes
                    where = (seed, domain, t.inputs, x)
                    if x is TOP:
                        continue
                    assert any(row[c] for _, m in t.outputs for row in m for c in range(col, start)), where
                    assert x is not CHAR_NEQ, where
                    if x is LEN_NEQ:
                        at_len_eq = table.entries.get(t.inputs[:j] + (LEN_EQ,) + t.inputs[j + 1 :])
                        for chi, m in t.outputs:
                            assert chi is LEN_NEQ and m[0][col] != 0, where
                            assert at_len_eq is not None and (LEN_EQ, m) in at_len_eq.outputs, where


class TestSerialization:
    def test_round_trip(self, table_a1):
        for t in table_a1.all():
            assert transformer_from_obj(transformer_to_obj(t)) == t

    def test_loads_entries_with_retired_keys(self, table_a1):
        # Older bundles carry per-entry "validated_samples", "seed" and "op".
        for t in table_a1.all():
            obj = dict(transformer_to_obj(t), validated_samples=2000, seed=0, op="concat")
            assert transformer_from_obj(obj) == t

    def test_matrix_rows(self, table_a1):
        t = table_a1.entries.get((LEN_EQ, LEN_EQ))
        obj = transformer_to_obj(t)
        assert obj == {"inputs": ["(len = c)", "(len = c)"], "outputs": [{"template": "(len = c)", "matrix": [[1, 1, 0]]}]}
