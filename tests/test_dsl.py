import sys
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings, strategies as st

from atlas import dsl
from atlas.dsl import (
    EvalError,
    Op,
    ParseError,
    abspos,
    boundaries,
    concat,
    const,
    cpos,
    eval_node,
    input_,
    parse_program,
    position_node,
    print_program,
    resolve_position,
    substr,
    well_typed,
)

from oracles import FactSet, exact_facts, rank_key


class TestEval:
    def test_concat_suffix(self):
        assert eval_node(concat(input_(), const("18")), "CAV") == "CAV18"

    def test_concat_year(self):
        assert eval_node(concat(input_(), const("2018")), "CAV") == "CAV2018"

    def test_substr_path_prefix(self):
        # Independent oracle: the window must end just past the last backslash.
        x = "\\Company\\Code\\index.html"
        last = max(i for i, ch in enumerate(x) if ch == "\\")
        expected = x[0 : last + 1]
        assert expected == "\\Company\\Code\\"
        p = substr(input_(), abspos(0), cpos(92, -1))
        assert eval_node(p, x) == expected

    def test_abspos_negative(self):
        assert resolve_position(abspos(-1), "abcd") == 4
        assert resolve_position(abspos(2), "abcd") == 2

    def test_cpos_counts_from_either_end(self):
        x = "a.b.c"
        assert resolve_position(cpos(ord("."), 1), x) == 2
        assert resolve_position(cpos(ord("."), 2), x) == 4
        assert resolve_position(cpos(ord("."), -1), x) == 4
        assert resolve_position(cpos(ord("."), -2), x) == 2

    def test_cpos_missing_occurrence(self):
        with pytest.raises(EvalError) as exc:
            eval_node(substr(input_(), abspos(0), cpos(ord("."), 2)), "a.b")
        assert exc.value.kind == EvalError.MISSING_OCCURRENCE

    def test_substr_out_of_bounds(self):
        with pytest.raises(EvalError) as exc:
            eval_node(substr(input_(), abspos(3), abspos(1)), "abcd")
        assert exc.value.kind == EvalError.OUT_OF_BOUNDS

    def test_eval_is_deterministic(self):
        p = concat(substr(input_(), abspos(1), abspos(-1)), const("!"))
        assert eval_node(p, "hello") == eval_node(p, "hello") == "ello!"


# Position literals over repeated characters, a character some strings
# lack, a non-BMP character and ``abspos`` past either end.
POSITIONS = st.lists(
    st.one_of(
        st.integers(-20, 20),
        st.tuples(st.sampled_from(list(map(ord, "ab.c\U0001f600"))), st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])),
    ),
    max_size=12,
)


class TestBoundaries:
    """``boundaries`` against a definition by counting, and
    ``resolve_position`` as the check on it that raises."""

    @settings(max_examples=200, deadline=None)
    @given(x=st.text(alphabet="aab.\U0001f600", max_size=16), positions=POSITIONS)
    @example(x="a.\U0001f600.a", positions=[-6, -5, -1, 0, 5, 6, (ord("."), 2), (ord("."), -2), (ord("."), 3), (0x1F600, -1), (ord("c"), 1)])
    def test_each_literal_names_the_boundary_counting_gives(self, x, positions):
        found = boundaries(x, positions)
        assert len(found) == len(positions)
        for p, got in zip(positions, found):
            if isinstance(p, int):
                want = [b for b in range(len(x) + 1) if (len(x[:b]) if p >= 0 else -1 - len(x[b:])) == p]
            else:
                ch, j = chr(p[0]), p[1]
                ends = range(1, len(x) + 1)
                if j > 0:
                    want = [b for b in ends if x[b - 1] == ch and x[:b].count(ch) == j]
                else:
                    want = [b for b in ends if x[b - 1] == ch and x[b - 1 :].count(ch) == -j]
            assert len(want) <= 1
            assert got == (want[0] if want else None), (x, p)
            node = position_node(p)
            if got is None:
                with pytest.raises(EvalError) as exc:
                    resolve_position(node, x)
                assert exc.value.kind == (EvalError.OUT_OF_BOUNDS if isinstance(p, int) else EvalError.MISSING_OCCURRENCE)
            else:
                assert resolve_position(node, x) == got

    def test_abspos_past_an_end_is_out_of_bounds(self):
        for k in (5, -6):
            with pytest.raises(EvalError) as exc:
                eval_node(substr(input_(), abspos(k), cpos(ord("."), 2)), "abcd")
            assert exc.value.kind == EvalError.OUT_OF_BOUNDS


class TestWellTyped:
    def test_positions_only_under_substr(self):
        assert well_typed(substr(input_(), abspos(0), cpos(97, 1)))
        assert not well_typed(concat(input_(), abspos(0)))


class TestExactFacts:
    def test_concat_length_sum(self):
        facts = exact_facts(Op.CONCAT, [FactSet.of(length=3), FactSet.of(length=2)])
        assert facts.length == 5

    def test_const_full_facts(self):
        facts = exact_facts(Op.CONST, [], literal="18")
        assert facts.length == 2
        assert facts.char_map() == {0: ord("1"), 1: ord("8")}

    def test_substr_window_length(self):
        facts = exact_facts(Op.SUBSTR, [FactSet.from_value("abcdefgh"), 4, 7])
        assert facts.length == 3
        assert facts.char_map()[0] == ord("e")

    def test_partial_children_give_partial_facts(self):
        facts = exact_facts(Op.CONCAT, [FactSet.of(), FactSet.of(length=2)])
        assert facts.length is None and facts.chars == ()

    @given(st.text(max_size=8), st.text(max_size=8))
    def test_concat_facts_sound(self, a, b):
        facts = exact_facts(Op.CONCAT, [FactSet.from_value(a), FactSet.from_value(b)])
        assert facts.holds_of(a + b)


class TestRank:
    def test_size_monotone(self):
        assert rank_key(input_()) < rank_key(concat(input_(), const("a")))

    def test_injective_on_literals(self):
        assert rank_key(const("a")) != rank_key(const("b"))

    def test_total_order_strict(self):
        nodes = [input_(), const("a"), const("b"), concat(input_(), input_()),
                 substr(input_(), abspos(0), abspos(1))]
        keys = [rank_key(n) for n in nodes]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(keys, reverse=True)[::-1]

    def test_matches_enumeration_order(self, monkeypatch):
        # (invariant rank-order) Oracle: the reference search (``oracles.reference_search``)
        # enumerates in ranking order, duplicates included, and the
        # synthesizer's run pools, in order, what it keeps (the run and the
        # reference return the same outcomes, see ``TestBulkRuns``).  Under
        # top with nothing accepted every new value is pooled, and the run
        # goes past candidate 27,424, where a child key blind to child sizes
        # first breaks the order (two size-7 concats whose left children
        # differ in size), up to its budget.
        import oracles
        from atlas import synthesizer
        from atlas.domain import TOP
        from atlas.synthesizer import Synthesizer, SynthesisTask
        from atlas.transformers import TransformerTable

        from conftest import assert_pools_match, record
        from oracles import reference_search, term_node

        monkeypatch.setattr(synthesizer, "gamma_contains", lambda state, out: False)
        monkeypatch.setattr(oracles, "state_holds", lambda state, s: False)
        task = SynthesisTask(examples=(("ab.c", "c-ab"),), max_candidates=40_000)
        log = []
        found = reference_search(task, [TOP], TransformerTable(), True, log)
        assert found.reason == "candidate-budget" and len(log) == found.enumerated == 40_001
        nodes = [term_node(rec) for rec in log]
        keys = [rank_key(node) for node in nodes]
        for n, (previous, key) in enumerate(zip(keys, keys[1:]), 2):
            assert previous < key, f"candidate {n}: {print_program(nodes[n - 1])}"

        synth = Synthesizer(task, [TOP], TransformerTable())
        seen = record(monkeypatch, synth)
        result = synth.run(require_correct=True)
        assert (result.reason, result.enumerated, result.deduped) == (found.reason, found.enumerated, found.deduped)
        assert_pools_match(synth, seen, found)


# Bounded program generator for round-trip properties.
def _positions():
    return st.one_of(
        st.integers(min_value=-3, max_value=8).map(abspos),
        st.tuples(st.integers(min_value=33, max_value=122), st.sampled_from([1, 2, -1, -2])).map(
            lambda t: cpos(*t)
        ),
    )


def _programs(depth=3):
    leaves = st.one_of(
        st.just(input_()),
        st.text(min_size=0, max_size=4).map(const),
        st.builds(substr, st.just(input_()), _positions(), _positions()),
    )
    return st.recursive(leaves, lambda kids: st.builds(concat, kids, kids), max_leaves=6)


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_program('(concat (input) (const "18"))') == concat(input_(), const("18"))
        assert parse_program('(substr (input) (abspos 0) (cpos 92 -1))') == substr(input_(), abspos(0), cpos(92, -1))

    def test_malformed_raises_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("(concat (input)")
        assert exc.value.pos >= 0

    def test_unknown_operator(self):
        with pytest.raises(ParseError):
            parse_program("(frob (input))")

    @given(_programs())
    def test_round_trip(self, node):
        assert parse_program(print_program(node)) == node
        assert str(node) == print_program(node)

    def test_escapes(self):
        p = const('say "hi" \\ bye')
        assert parse_program(print_program(p)) == p


def nested(shape, depth):
    """A program whose deepest term sits under ``depth`` operators."""
    if shape == "concat":
        return "(concat " * depth + "(input)" + " (input))" * depth
    # The positions of the innermost substr sit under ``depth`` operators.
    return "(concat (input) " * (depth - 1) + "(substr (input) (abspos 0) (abspos 1))" + ")" * (depth - 1)


def called_from_depth(n: int, f):
    """``f()`` called from ``n`` extra frames down the stack."""
    return called_from_depth(n - 1, f) if n else f()


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDepthLimit:
    @pytest.mark.parametrize("shape", ["concat", "substr"])
    @pytest.mark.parametrize("deep_caller", [False, True], ids=["shallow-caller", "deep-caller"])
    def test_limit_parses_and_one_more_does_not(self, shape, deep_caller):
        # A deep caller parses from a helper recursed to within 30 frames
        # of the interpreter's recursion limit.
        levels = sys.getrecursionlimit() - stack_depth() - 30 if deep_caller else 0

        def parse(text, n=levels):
            return parse(text, n - 1) if n else parse_program(text)

        text = nested(shape, dsl.MAX_DEPTH)
        assert print_program(parse(text)) == text
        with pytest.raises(ParseError, match="program nests too deeply"):
            parse(nested(shape, dsl.MAX_DEPTH + 1))

    def test_depth_is_counted_in_operators(self):
        assert parse_program(nested("concat", 1)) == concat(input_(), input_())
        assert parse_program(nested("substr", 1)) == substr(input_(), abspos(0), abspos(1))

    @pytest.mark.parametrize("shape", ["concat", "substr"])
    @pytest.mark.parametrize("caller", [0, 300], ids=["shallow-caller", "caller-300-deep"])
    def test_deepest_programs_compare_and_hash(self, shape, caller):
        text = nested(shape, dsl.MAX_DEPTH)
        a, b = parse_program(text), parse_program(text)
        # The two differ only in their deepest term.
        other = parse_program(text.replace(" (input))", ' (const "x"))', 1).replace("(abspos 1)", "(abspos 2)"))
        assert a is not b
        assert called_from_depth(caller, lambda: a == b and hash(a) == hash(b))
        assert called_from_depth(caller, lambda: a != other and not a == other)

    @pytest.mark.parametrize("shape", ["concat", "substr"])
    @pytest.mark.parametrize("caller", [0, 300], ids=["shallow-caller", "caller-300-deep"])
    def test_deepest_programs_have_their_size(self, shape, caller):
        text = nested(shape, dsl.MAX_DEPTH)
        program = parse_program(text)
        # Every node opens one parenthesis.
        assert called_from_depth(caller, lambda: program.size) == text.count("(")


class TestEquality:
    @given(_programs(), _programs())
    def test_equality_and_hash_agree_with_the_fields(self, a, b):
        copy = parse_program(print_program(a))
        assert copy is not a and copy == a and hash(copy) == hash(a)
        assert (a == b) == (astuple(a) == astuple(b))
        assert a != astuple(a)
