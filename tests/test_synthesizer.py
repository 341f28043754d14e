import gc
import operator
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from atlas.domain import (
    AbstractValue,
    BOTTOM,
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    TOP_PRED,
    _index_runs,
    best_abstraction,
    char_eq,
    char_neq,
    gamma_contains,
    len_eq,
    len_neq,
    widen,
)
from atlas.dsl import (
    EvalError,
    Op,
    abspos,
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
)
from atlas import dsl, synthesizer
from atlas.cli import load_task
from atlas.corpus import corpus_dir
from atlas.synthesizer import SynthesisTask, Synthesizer, apply_transformer, state_embeds
from atlas.transformers import Transformer, TransformerTable, counterexample

import oracles
from conftest import (
    E1,
    E2,
    E3,
    assert_pools_match,
    entries_with_top_copies,
    entry_outputs,
    outputs_kept,
    record,
    table_outputs,
    with_outputs,
)
from oracles import (
    abstract_eval,
    facts_of,
    full_abstraction,
    is_correct,
    meet_predicates,
    pred_holds,
    rank_key,
    reference_search,
    state_embeds_scan,
    term_node,
)


def val(*preds):
    return AbstractValue.of(preds)


class TestApplyTransformer:
    def test_length_sum(self, table_a1):
        got = apply_transformer(table_a1, (val(len_eq(3)), val(len_eq(2))))
        assert len_eq(5) in got.conjuncts

    def test_top_argument_gives_top(self, table_a1):
        got = apply_transformer(table_a1, (AbstractValue.top(), val(len_eq(2))))
        assert got is AbstractValue.top()  # nothing derived: the shared top

    def test_neq_row(self, table_a1):
        got = apply_transformer(table_a1, (val(len_eq(3)), val(len_neq(2))))
        assert got.conjuncts == {len_neq(5)}

    def test_missing_entry_behaves_as_top(self, table_a1):
        # table_a1 has no entries for character templates: those pairs add nothing.
        assert table_a1.entries.get((CHAR_EQ, CHAR_EQ)) is None
        left = val(len_eq(3), char_eq(0, ord("a")))
        right = val(len_eq(2), char_eq(1, ord("b")))
        assert apply_transformer(table_a1, (left, right)).conjuncts == {len_eq(5)}

    def test_bottom_propagates(self, table_a1):
        assert apply_transformer(table_a1, (BOTTOM, val(len_eq(1)))) is BOTTOM

    def test_conjunctions_apply_per_conjunct(self, table_a2):
        left = val(len_eq(2), char_eq(0, ord("a")))
        right = val(len_eq(3), char_eq(1, ord("z")))
        got = apply_transformer(table_a2, (left, right))
        assert len_eq(5) in got.conjuncts
        assert char_eq(0, ord("a")) in got.conjuncts  # left projection
        assert char_eq(3, ord("z")) in got.conjuncts  # shifted by left length

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_brute_force_over_the_whole_table(self, table_a2, data):
        left, right = data.draw(STATES), data.draw(STATES)
        assert facts_of(apply_transformer(table_a2, (left, right))) == _brute_force_apply(table_a2.all(), left, right)


# Unreduced leaf states over random subsets of the learnable templates, plus top and bottom.
_STATE_POOL = ConstantPool.default(["abz"])
STATES = st.one_of(
    st.just(AbstractValue.top()),
    st.just(BOTTOM),
    st.builds(
        lambda s, templates: full_abstraction(s, templates, _STATE_POOL),
        st.text(alphabet="abz", max_size=5),
        st.sets(st.sampled_from([LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ])),
    ),
)


def draw_state(data, table):
    """A leaf state from ``STATES``, or the state ``table`` derives from two of them."""
    left = data.draw(STATES)
    if data.draw(st.booleans()):
        return left
    return apply_transformer(table, (left, data.draw(STATES)))


# A table no training run learns: a coefficient of 2 (unsound), a copy with
# a second input other than top, and a ``len !=`` output that reads a
# character index.
HAND_MADE = TransformerTable(
    Transformer(inputs, outputs)
    for inputs, outputs in [
        ((LEN_EQ, LEN_EQ), ((LEN_EQ, ((2, 1, -1),)),)),
        ((CHAR_EQ, CHAR_NEQ), ((CHAR_EQ, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),)),
        ((TOP, CHAR_EQ), ((LEN_NEQ, ((1, 0, 0),)),)),
        ((LEN_NEQ, LEN_EQ), ((LEN_NEQ, ((1, 1, 0),)),)),
    ]
)


# Leaf states as the synthesizer makes them, reduced and built straight into
# their fields, over pools whose character indices may have gaps; or unreduced.
LEAVES = st.one_of(
    STATES,
    st.builds(
        lambda s, templates, indices: best_abstraction(s, templates, ConstantPool(_STATE_POOL.lengths, indices, _STATE_POOL.chars)),
        st.text(alphabet="abz", max_size=6),
        st.sets(st.sampled_from([TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ])),
        st.lists(st.integers(0, 6), unique=True).map(sorted).map(tuple),
    ),
)


def witness_strings(data, state):
    """Strings over "abz" one edit from one that fits the state's length and segments."""
    end = state.segments[-1][0] + len(state.segments[-1][1]) if state.segments else 0
    chars = ["a"] * (state.length if state.length is not None else end + data.draw(st.integers(0, 2)))
    for off, run in state.segments:
        chars[off : off + len(run)] = run
    return sorted(neighbours("".join(chars)))


class TestStateFields:
    """A state's four fields describe the conjunction its ``conjuncts`` list."""

    @pytest.mark.parametrize("which", ["seed-0", "seed-1", "seed-705", "hand-made"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fields_agree_with_the_conjuncts(self, trained_at, which, data):
        table = HAND_MADE if which == "hand-made" else trained_at[int(which[5:])].table
        state = data.draw(LEAVES)
        if data.draw(st.booleans()):
            state = apply_transformer(table, (state, data.draw(LEAVES)))
        if state is BOTTOM:
            return
        # Sorted, non-empty, apart and maximal runs.
        segments = state.segments
        assert all(run for _, run in segments)
        assert all(a + len(run) < b for (a, run), (b, _) in zip(segments, segments[1:]))
        assert AbstractValue.of(state.conjuncts) == state
        for s in witness_strings(data, state) + data.draw(st.lists(ABZ, max_size=4)):
            assert gamma_contains(state, s) == all(pred_holds(p, s) for p in state.conjuncts), s


class TestApplyTransformerAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 705])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_learned_tables(self, trained_at, seed, data):
        table = trained_at[seed].table
        left, right = draw_state(data, table), draw_state(data, table)
        assert facts_of(apply_transformer(table, (left, right))) == _brute_force_apply(table.all(), left, right)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hand_made_table(self, data):
        left, right = draw_state(data, HAND_MADE), draw_state(data, HAND_MADE)
        assert facts_of(apply_transformer(HAND_MADE, (left, right))) == _brute_force_apply(HAND_MADE.all(), left, right)


def _brute_force_apply(entries, left, right):
    """Every entry of ``entries``, every selection of one conjunct per
    argument, every output, met together by ``meet_predicates``, which
    shares no code with the domain: the facts of the result, or BOTTOM."""
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    derived = []
    for entry in entries:
        per_arg = [
            [TOP_PRED] if t == TOP else [p for p in state.conjuncts if p.kind is t]
            for t, state in zip(entry.inputs, (left, right))
        ]
        for sel in product(*per_arg):
            vec = [v for p in sel for v in p.args] + [1]
            for chi, matrix in entry.outputs:
                derived.append(chi.instantiate(tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)))
    return meet_predicates(derived)


class TestAbstractEval:
    def test_suffix_program_tracks_length(self, table_a1):
        p = parse_program('(concat (input) (const "2018"))')
        pool = ConstantPool.default(["CAV", "CAV2018"])
        state = abstract_eval(p, "CAV", [TOP, LEN_EQ, LEN_NEQ], table_a1, pool)
        assert len_eq(7) in state.conjuncts
        assert gamma_contains(state, "CAV2018")

    def test_closed_substr_is_exact(self, table_a2):
        p = parse_program("(substr (input) (abspos 0) (cpos 92 -1))")
        pool = ConstantPool.default(["\\a\\b.c"])
        state = abstract_eval(p, "\\a\\b.c", [TOP, LEN_EQ, CHAR_EQ], table_a2, pool)
        assert len_eq(3) in state.conjuncts  # the window is "\a\"
        assert char_eq(0, ord("\\")) in state.conjuncts


class TestStateEmbeds:
    def test_top_embeds_everywhere(self):
        assert state_embeds(AbstractValue.top(), "")

    def test_bottom_never_embeds(self):
        assert not state_embeds(BOTTOM, "anything")

    def test_length_too_long(self):
        assert not state_embeds(val(len_eq(9)), "short")

    def test_pinned_chars_must_occur(self):
        assert state_embeds(val(char_eq(0, ord("b"))), "abc")
        assert not state_embeds(val(char_eq(0, ord("z"))), "abc")

    def test_pinned_window(self):
        assert state_embeds(val(len_eq(2), char_eq(0, ord("b")), char_eq(1, ord("c"))), "abc")
        assert not state_embeds(val(len_eq(2), char_eq(0, ord("c")), char_eq(1, ord("b"))), "abc")

    def test_char_neq_blocks_full_pins(self):
        # Every substring of "aa" of length 1 is "a".
        assert not state_embeds(val(len_eq(1), char_neq(0, ord("a"))), "aa")
        assert state_embeds(val(len_eq(1), char_neq(0, ord("a"))), "ab")

    def test_embedding_is_sound_for_solution_parts(self):
        # Any fact set of a true substring embeds.
        out = "CAV2018"
        for i in range(len(out)):
            for j in range(i, len(out) + 1):
                sub = out[i:j]
                state = val(len_eq(len(sub)), *(char_eq(k, ord(c)) for k, c in enumerate(sub)))
                assert state_embeds(state, out)


@st.composite
def embed_states(draw):
    """Random states for ``state_embeds``, of three shapes:

    - pinned characters, maybe a length, a run of ``len !=`` facts at or
      next to the shortest length the pins allow, and ``char !=`` facts
      that may lie past it;
    - a ``{len !=}`` leaf's facts, every pool length but its own, so a run
      of ``len !=`` facts from 0, maybe with a leaf's ``char !=`` facts;
    - no runs, and ``char !=`` facts only at or past the shortest length.
    """
    shape = draw(st.sampled_from(["pins", "len-neq-leaf", "no-runs"]))
    if shape == "len-neq-leaf":
        leaf = draw(st.text(alphabet="abc", max_size=13))
        preds = [len_neq(n) for n in range(draw(st.integers(len(leaf), 17)) + 1) if n != len(leaf)]
        if draw(st.booleans()):
            preds += [char_neq(i, ord(c)) for i, ch in enumerate(leaf) for c in "abc" if c != ch]
        return val(*preds)
    if shape == "no-runs":
        shortest = draw(st.integers(0, 8))
        preds = [len_neq(n) for n in range(shortest)]
        if draw(st.booleans()):
            preds = [len_eq(shortest)]
        neqs = draw(st.sets(st.tuples(st.integers(shortest, shortest + 4), st.sampled_from("abc")), max_size=4))
        return val(*preds, *(char_neq(i, ord(c)) for i, c in neqs))
    pins = draw(st.dictionaries(st.integers(0, 5), st.sampled_from("abc"), max_size=3))
    preds = [char_eq(i, ord(c)) for i, c in pins.items()]
    if draw(st.booleans()):
        preds.append(len_eq(draw(st.integers(0, 8))))
    start = max(0, max(pins, default=-1) + 1 + draw(st.integers(-1, 1)))
    preds += [len_neq(n) for n in range(start, start + draw(st.integers(0, 4)))]
    preds += [len_neq(n) for n in draw(st.sets(st.integers(0, 10), max_size=2))]
    neqs = draw(st.sets(st.tuples(st.integers(0, 10), st.sampled_from("abc")), max_size=4))
    preds += [char_neq(i, ord(c)) for i, c in neqs]
    # Met, so a contradiction gives bottom.
    return val(*preds)


class TestStateEmbedsAgainstTheScan:
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.just(AbstractValue.top()), st.just(BOTTOM), embed_states()), st.text(alphabet="abc", max_size=12))
    @example(val(len_neq(0), char_neq(0, ord("a"))), "")
    def test_agrees_with_the_per_length_scan(self, state, out):
        assert state_embeds(state, out) == state_embeds_scan(state, out)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.just(AbstractValue.top()), st.just(BOTTOM), embed_states()), st.text(alphabet="abc", max_size=12))
    @example(val(len_eq(3), char_eq(0, ord("a")), char_neq(2, ord("a"))), "abc")
    @example(val(len_neq(0), char_neq(1, ord("a"))), "ab")
    def test_contained_output_embeds(self, state, out):
        # ``run`` prunes at the first state that does not embed its output
        # without testing acceptance; this is why that is safe.
        assert state_embeds(state, out) or not gamma_contains(state, out)

    def test_shortest_admissible_length_past_a_run_of_len_neq(self):
        state = val(char_eq(0, ord("a")), len_neq(1), len_neq(2))
        assert state_embeds(state, "xabc") and not state_embeds(state, "xab")

    def test_char_neq_past_the_shortest_length_is_vacuous(self):
        assert state_embeds(val(char_eq(0, ord("a")), char_neq(3, ord("a"))), "aaaa")


class TestSynthesize:
    def test_e1_with_length_domain(self, table_a1):
        result = Synthesizer(E1, [TOP, LEN_EQ, LEN_NEQ], table_a1).run(require_correct=False)
        assert result.program is not None
        # Concretely equivalent to appending "2018" on every training input.
        for e_in, e_out in E1.examples:
            assert eval_node(result.program, e_in) == e_out
        state = abstract_eval(
            result.program, "CAV", [TOP, LEN_EQ, LEN_NEQ], table_a1,
            ConstantPool.default(["CAV", "CAV2018"]),
        )
        assert len_eq(7) in state.conjuncts

    def test_top_domain_returns_minimal_possibly_spurious(self):
        table = TransformerTable()
        result = Synthesizer(E1, [TOP], table).run(require_correct=False)
        assert print_program(result.program) == "(input)"
        assert not is_correct(result.program, E1)

    def test_unsatisfiable_task_returns_null(self, table_a1):
        # A 13-char output cannot be assembled from two pool constants of at
        # most 6 chars, and the input shares no substring with it, so the
        # bounded search must exhaust.
        task = SynthesisTask(examples=(("ab", "QRSTUVWXYZ123"),), max_ast_size=3, max_candidates=5000)
        result = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1).run(require_correct=True)
        assert result.program is None
        assert result.reason in ("exhausted", "candidate-budget")

    def test_checked_mode_solves_e2(self, table_a2):
        result = Synthesizer(E2, [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], table_a2).run(require_correct=True)
        assert result.correct
        assert is_correct(result.program, E2)

    def test_e3_first_accepted_is_correct(self, table_a2):
        result = Synthesizer(E3, [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], table_a2).run(require_correct=False)
        assert is_correct(result.program, E3)
        assert print_program(result.program) == "(substr (input) (abspos 0) (cpos 92 -1))"


class TestIsCorrect:
    def test_correct_program(self):
        assert is_correct(concat(input_(), const("2018")), E1)

    def test_wrong_program(self):
        assert not is_correct(concat(input_(), const("18")), E1)

    def test_identity(self):
        task = SynthesisTask(examples=(("a", "a"),))
        assert is_correct(input_(), task)

    def test_eval_error_counts_as_incorrect(self):
        p = parse_program("(substr (input) (abspos 5) (abspos 9))")
        assert not is_correct(p, SynthesisTask(examples=(("ab", "ab"),)))


def widened(states) -> tuple:
    """``states`` with each exact ``str`` state widened to its ``AbstractValue``."""
    return tuple(widen(s) if isinstance(s, str) else s for s in states)


def fresh_states(synth, node) -> tuple:
    """The states of ``node`` on each example input by ``abstract_eval``,
    which builds no exact states."""
    return tuple(abstract_eval(node, e_in, synth.templates, synth.table, synth.pool) for e_in in synth.inputs)


def check_derived(synth, seen, rec, derived) -> tuple:
    """The fresh states of a record ``run`` derived the states ``derived``
    for, after checking that ``derived``, widened, is a prefix of them that
    stops at the first state that does not embed its output, or runs to the
    end."""
    node = seen.node(synth, rec)
    fresh = fresh_states(synth, node)
    shown = print_program(node)
    assert widened(derived) == fresh[: len(derived)], shown
    embeds = [state_embeds(s, out) for s, out in zip(derived, synth.outputs)]
    assert all(embeds[:-1]), shown
    assert len(derived) == len(fresh) or not embeds[-1], shown
    return fresh


def last_fails_to_embed(states, outputs) -> bool:
    return bool(states) and not state_embeds(states[-1], outputs[len(states) - 1])


def check_bulk_tests(synth, seen) -> list:
    """``seen.tested()`` (``Recording.tested``), after checking that each
    tested candidate's fresh states hold its values and embed exactly when
    the run found its values embed: so each one the run pruned fails to
    embed."""
    tested = seen.tested()
    for rec, embeds in tested:
        node = seen.node(synth, rec)
        fresh = fresh_states(synth, node)
        assert all(gamma_contains(st, v) for st, v in zip(fresh, rec[0])), print_program(node)
        assert embeds == all(map(state_embeds, fresh, synth.outputs)), print_program(node)
    return tested


def outcome(r) -> tuple:
    return str(r.program), r.correct, r.reason, r.enumerated, r.pruned_abstract, r.deduped


class TestEnumeratorProperties:
    def test_abstract_soundness_during_enumeration(self, table_a2, monkeypatch):
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        seen = record(monkeypatch, synth, check=True)
        result = synth.run(require_correct=True)
        assert result.correct
        assert outcome(result) == outcome(reference_search(E2, FIVE_TEMPLATES, table_a2, True))
        pruned = 0
        for rec, derived, embeds in seen.derived():
            fresh = check_derived(synth, seen, rec, derived)
            assert all(gamma_contains(st, v) for st, v in zip(fresh, rec[0])), print_program(seen.node(synth, rec))
            assert embeds != last_fails_to_embed(derived, E2.outputs)
            pruned += not embeds
        taken = check_bulk_tests(synth, seen)
        pruned += sum(not embeds for _, embeds in taken)
        # The pruned candidates are those whose last derived state fails to
        # embed and those tested in bulk that fail to embed.
        assert pruned == result.pruned_abstract > 0
        assert taken

    def test_prune_safety_same_program_with_filter_off(self, table_a2, trained, monkeypatch):
        # E1 and E2 under the five-template table; under the seed-0 bundle,
        # where exact runs prune through ``exact_embeds``, eval_phone_dash
        # and E3, whose longest leaves are not exact.  Both names pass
        # everything, so no prune is left.  Without pruning,
        # eval_proto_host passes 200,000 candidates, as under top.
        _, phone_dash = load_task(corpus_dir() / "eval_phone_dash.json", 14, 200_000, None)
        synths = [lambda task=task: Synthesizer(task, FIVE_TEMPLATES, table_a2) for task in (E1, E2)]
        synths += [lambda task=task: Synthesizer(task, trained.templates, trained.table) for task in (phone_dash, E3)]
        on = [synth().run(require_correct=True) for synth in synths]
        monkeypatch.setattr(synthesizer, "state_embeds", lambda state, out: True)
        monkeypatch.setattr(synthesizer, "exact_embeds", lambda values, live, outputs: live)
        off = [synth().run(require_correct=True) for synth in synths]
        for a, b in zip(on, off):
            assert a.program == b.program
            assert a.correct and b.correct
            assert b.pruned_abstract == 0 < a.pruned_abstract

    def test_monotone_pruning(self, table_a1, table_a2):
        # A richer domain never enumerates more candidates on a fixed task.
        task = SynthesisTask(examples=(("notes.txt", "txt!"), ("img.jpeg", "jpeg!")))
        rich = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], table_a2).run(require_correct=True)
        poor = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1).run(require_correct=True)
        baseline = Synthesizer(task, [TOP], TransformerTable()).run(require_correct=True)
        assert rich.correct and poor.correct and baseline.correct
        assert rich.enumerated <= poor.enumerated <= baseline.enumerated

    def test_dedup_counts(self, table_a2):
        # The substring wave on E3 revisits many value-equal windows.
        result = Synthesizer(E3, [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], table_a2).run(require_correct=True)
        assert result.deduped > 0

    def test_minimal_rank_no_smaller_consistent_program(self, table_a1, trained):
        # Deterministic ranking contract: nothing enumerated before the
        # returned program, duplicates included, is abstractly consistent.
        # The reference enumerates in rank order, and the run returns what
        # it returns after as many candidates.  E1 under the length domain,
        # and two eval tasks under the seed-0 bundle.
        synths = {"e1": Synthesizer(E1, [TOP, LEN_EQ, LEN_NEQ], table_a1)}
        for name in ("eval_backup", "eval_date_slash"):
            _, task = load_task(corpus_dir() / f"{name}.json", 14, 200_000, None)
            synths[name] = Synthesizer(task, trained.templates, trained.table)
        for name, synth in synths.items():
            log = []
            found = reference_search(synth.task, synth.templates, synth.table, False, log)
            result = synth.run(require_correct=False)
            assert outcome(result) == outcome(found), name
            assert len(log) == result.enumerated, name
            *before, last = log
            assert term_node(last) == result.program, name
            for rec in before:
                fresh = fresh_states(synth, term_node(rec))
                assert not all(gamma_contains(st, out) for st, out in zip(fresh, synth.outputs)), name


FIVE_TEMPLATES = [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ]


# E2 with a second phone number: no program of up to 14 nodes is correct on
# both, so a run goes on until its budget or its pools run out.
PHONES = SynthesisTask(examples=(*E2.examples, ("408.555.1234", "408-555-1234")))


class TestStateVectorCache:
    """The registry and the concat cache give what a fresh evaluation gives
    (invariant registry)."""

    @pytest.fixture
    def domains(self, trained, table_a1, table_a2):
        """Templates and table by domain name."""
        return {
            "bundle": (trained.templates, trained.table),
            "five": (FIVE_TEMPLATES, table_a2),
            "length": ([TOP, LEN_EQ, LEN_NEQ], table_a1),
            "top": ([TOP], TransformerTable()),
        }

    @pytest.mark.parametrize(
        "domain, limit, reuses",
        [
            ("five", 20_000, False),  # nearly every state pins its value
            ("length", 8_000, True),
            ("top", 20_000, True),
        ],
    )
    def test_cached_states_and_verdicts_equal_fresh_ones(self, monkeypatch, domains, domain, limit, reuses):
        templates, table = domains[domain]
        task = SynthesisTask(examples=PHONES.examples, max_candidates=limit)
        synth = Synthesizer(task, templates, table)
        seen = record(monkeypatch, synth, check=True)
        result = synth.run(require_correct=True)
        assert result.program is None
        assert outcome(result) == outcome(reference_search(task, templates, table, True))
        # No candidate's values equal the outputs, so none is judged.
        assert seen.calls["gamma_contains"] == 0
        vectors, concats, embedding, records = seen.vectors, seen.concats, set(), seen.derived()
        for rec, derived, embeds in records:
            fresh = check_derived(synth, seen, rec, derived)
            assert embeds == all(state_embeds(s, out) for s, out in zip(fresh, PHONES.outputs))
            # A pruned candidate's states stop at the first that fails to embed.
            assert widened(derived) == fresh if embeds else last_fails_to_embed(derived, PHONES.outputs)
            # Registered when derived, exactly when it embeds; a
            # concatenation's child-id pair is cached then.
            assert (derived in vectors) == embeds
            if embeds:
                embedding.add(derived)
                if rec[2] is not None:
                    assert vectors[concats[rec[2][1], rec[3][1]]] == derived
        # Each new candidate the run judged was derived, tested in bulk, or
        # made with its cached vector; over the budget, the last one is
        # counted only.
        taken = check_bulk_tests(synth, seen)
        judged = result.enumerated - (result.reason == "candidate-budget")
        reused = judged - result.deduped - len(records) - len(taken)
        assert reused > 0 or not reuses
        pruned = sum(not embeds for _, _, embeds in records) + sum(not embeds for _, embeds in taken)
        assert result.pruned_abstract == pruned
        # A candidate tested in bulk that embeds is pooled, unless its level
        # is not.  The registry holds every derived vector that embeds and
        # the values of each pooled candidate tested in bulk, and only those,
        # so each registered vector embeds.
        pooled = {rec[0] for rec in seen.pooled()}
        exact = set()
        for rec, embeds in taken:
            if embeds and seen.pool(rec.size):
                assert rec[0] in pooled, print_program(seen.node(synth, rec))
                exact.add(rec[0])
        assert len(set(vectors)) == len(vectors)
        assert set(vectors) == embedding | exact
        # A pooled record's vector is its fresh one.
        for rec in seen.pooled():
            assert widened(vectors[rec[1]]) == fresh_states(synth, seen.node(synth, rec))
        # A cached pair names the vector of its children's concatenation.
        for (i, j), k in concats.items():
            pairs = zip(vectors[i], vectors[j])
            assert tuple(apply_transformer(table, ab) for ab in pairs) == vectors[k]

    @pytest.mark.parametrize("domain", ["five", "length", "top"])
    @pytest.mark.parametrize("task", [E1, E2], ids=["e1", "e2"])
    def test_require_correct_judges_only_values_equal_to_the_outputs(self, monkeypatch, domains, domain, task):
        templates, table = domains[domain]
        synth = Synthesizer(task, templates, table)
        seen = record(monkeypatch, synth)
        result = synth.run(require_correct=True)
        assert result.correct
        # The calls hold one vector, once: that of the returned candidate,
        # whose values are the outputs.
        assert seen.accepted[0] == task.outputs
        assert seen.judged_states() == list(seen.vectors[seen.accepted[1]])
        # A pooled record's registered vector is its fresh one, so it holds its value.
        for rec in seen.pooled():
            assert widened(seen.vectors[rec[1]]) == fresh_states(synth, seen.node(synth, rec))

    @pytest.mark.parametrize("modes", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("domain", ["bundle", "length", "top"])
    @pytest.mark.parametrize("task", [E2, SynthesisTask(examples=PHONES.examples, max_candidates=8_000)], ids=["solved", "unsolved"])
    def test_a_second_run_repeats_the_first(self, monkeypatch, domains, domain, task, modes):
        templates, table = domains[domain]
        synth = Synthesizer(task, templates, table)
        first = record(monkeypatch, synth)
        synth.run(require_correct=modes[0])
        assert first.vectors
        fresh = Synthesizer(task, templates, table)
        watched = record(monkeypatch, synth), record(monkeypatch, fresh)
        second = outcome(synth.run(require_correct=modes[1]))
        assert second == outcome(fresh.run(require_correct=modes[1]))
        assert (second[2] == "found") == (task is E2) or not modes[1]
        # Nothing of the first run is left: the second run makes, derives,
        # tests, judges, registers and pools what a fresh synthesizer's only
        # run does.
        assert vars(watched[0]) == vars(watched[1])

    def test_no_vector_is_judged_twice(self, monkeypatch, table_a1):
        # Without require_correct, under the length table, many candidates
        # share a vector: each vector is judged at most once, since one
        # that passes ends the search (invariant registry).  Judging each
        # candidate took 4,809 calls on the 15 eval tasks.
        calls = 0
        for name, task in corpus_tasks(20_000).items():
            if not name.startswith("eval_"):
                continue
            synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1)
            seen = record(monkeypatch, synth, derivations=False)
            synth.run()
            sids = [sid for _, sid, _ in seen.judgements()]
            assert sids and None not in sids and len(set(sids)) == len(sids), name
            calls += seen.calls["gamma_contains"]
        assert calls == 152

    def test_unsound_entry_still_fails_the_soundness_check(self, monkeypatch, table_a1):
        # len(a + b) = len(a): wrong whenever b is not empty.  Under the length
        # domain many wrong states still embed, so the run pools them.
        unsound = Transformer((LEN_EQ, LEN_EQ), ((LEN_EQ, ((1, 0, 0),)),))
        table = TransformerTable([*(t for t in table_a1.all() if t.inputs != unsound.inputs), unsound])
        task = SynthesisTask(examples=E2.examples, max_candidates=5_000)
        synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table)
        seen = record(monkeypatch, synth)
        synth.run(require_correct=True)

        def wrong(states, values) -> bool:
            return not all(gamma_contains(st, v) for st, v in zip(states, values))

        # Some wrong states are derived, and some are taken later in the same
        # run from the concat cache: a pooled concatenation the run did not
        # derive took that path.
        assert any(wrong(derived, rec[0]) for rec, derived, _ in seen.derived())
        derived_values = {rec[0] for rec, _, _ in seen.derived()}
        cached = [rec for rec in seen.pooled() if rec[2] is not None and rec[0] not in derived_values]
        assert any(wrong(seen.vectors[rec[1]], rec[0]) for rec in cached)


def leaf_runs(synth) -> list:
    """The runs ``(keys, sids, left, kids, rows)`` of ``_batch`` at size 4
    with nothing pooled, so no concat: those of the substring leaves."""
    empty = ([], [], [], [])
    return list(synth._batch(4, {1: empty, 2: empty}, ({}, {}), {}, []))


def size4_leaves(synth):
    """``(node, values)`` of the size-4 leaves, in order."""
    return [(synth._node({}, 4, None, index), values) for run in leaf_runs(synth) for values, index in zip(run[4], run[3])]


# Every input character is a cpos character; short random inputs often lack
# one that another input has, or have fewer than three occurrences of it.
EXAMPLES = st.lists(
    st.tuples(st.text(alphabet="ab./", max_size=8), st.text(alphabet="ab./", max_size=4)),
    min_size=1,
    max_size=3,
)


# Repeated characters, a character some inputs lack, inputs of different
# lengths (some past the 12 of the largest pooled ``abspos``) and a non-BMP
# character.
WIDE_EXAMPLES = st.lists(
    st.tuples(st.text(alphabet="aab.\U0001f600", max_size=16), st.text(alphabet="ab", max_size=3)),
    min_size=1,
    max_size=3,
)


class TestPositionTable:
    """Substring leaves come from the resolved position table (invariant
    position-table)."""

    @settings(max_examples=60, deadline=None)
    @given(EXAMPLES)
    @example([("a.b", "b"), ("ab", "a")])  # "." has no occurrence in the second input
    @example([("", "")])
    def test_substr_leaves_equal_evaluated_windows(self, examples):
        task = SynthesisTask(examples=tuple(examples), max_ast_size=4)
        synth = Synthesizer(task, [TOP], TransformerTable())
        want = []
        positions = [position_node(p) for p in synth.positions]
        for p1 in positions:
            for p2 in positions:
                node = substr(input_(), p1, p2)
                try:
                    want.append((node, tuple(eval_node(node, x) for x in task.inputs)))
                except EvalError:
                    continue
        assert size4_leaves(synth) == want

    @settings(max_examples=60, deadline=None)
    @given(WIDE_EXAMPLES)
    @example([("a.a.b", "a"), ("b\U0001f600b", "b"), ("", "")])
    def test_positions_are_the_pool_in_rank_order(self, examples):
        task = SynthesisTask(examples=tuple(examples), max_ast_size=4)
        synth = Synthesizer(task, [TOP], TransformerTable())
        nodes = [position_node(p) for p in synth.positions]
        assert nodes == sorted(nodes, key=rank_key)
        max_len = max(len(s) for e in examples for s in e)
        chars = {ord(c) for e in examples for c in e[0]}
        pool = {abspos(k) for k in (-1, *range(min(12, max_len) + 1))}
        pool |= {cpos(c, j) for c in chars for j in (1, 2, 3, -1, -2, -3)}
        assert len(nodes) == len(pool) and set(nodes) == pool

    @settings(max_examples=60, deadline=None)
    @given(WIDE_EXAMPLES)
    @example([("a.a.b", "a"), ("ab", "b")])  # "." is missing from the second input
    @example([("aaaa", "a"), ("a", "a")])  # a 2nd and 3rd "a" only in the first
    @example([("\U0001f600a\U0001f600", "a"), ("a" * 14, "a")])  # non-BMP; lengths 3 and 14
    def test_rows_are_the_resolved_boundaries(self, examples):
        task = SynthesisTask(examples=tuple(examples), max_ast_size=4)
        synth = Synthesizer(task, [TOP], TransformerTable())
        want = []
        for k, p in enumerate(synth.positions):
            try:
                row = tuple(resolve_position(position_node(p), x) for x in task.inputs)
            except EvalError:
                continue
            if all(0 <= i <= len(x) for i, x in zip(row, task.inputs)):
                want.append((k, row))
        assert synth._position_table() == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.text(alphabet="aa.", max_size=20), st.text(alphabet="a.", max_size=3)), min_size=1, max_size=3))
    @example([("a", "a"), ("a", ".")])  # every abspos past 1 is -1, and cpos a 1 is cpos a -1
    @example([("a" * 20, "a"), ("a" * 9, "a")])  # runs of exact leaves and of longer ones
    def test_leaf_runs_equal_every_pair_of_rows(self, trained, examples):
        # Short inputs of few characters resolve many positions to the same
        # boundaries; the runs are those of a plain enumeration of the pairs
        # of rows, and a run is exact iff no value of it is longer than the
        # leaves the bundle pins whole (invariant exact-states).
        task = SynthesisTask(examples=tuple(examples), max_ast_size=4)
        synth = Synthesizer(task, trained.templates, trained.table)
        rows, base, width = synth._position_table(), 1 + len(synth.consts), len(synth.positions)
        want = [
            (tuple(x[i:j] for x, i, j in zip(task.inputs, r1, r2)), base + k1 * width + k2)
            for k1, r1 in rows
            for k2, r2 in rows
            if all(i <= j for i, j in zip(r1, r2))
        ]
        runs = leaf_runs(synth)
        assert [leaf for run in runs for leaf in zip(run[4], run[3])] == want
        assert [len(run[0]) for run in runs] == [len(want[i : i + 256]) for i in range(0, len(want), 256)]
        for _, sids, left, _, values in runs:
            exact = max(len(s) for v in values for s in v) <= synth._exact_len
            assert left is None and (sids is None if exact else sids == [None] * len(values))
        # Leaves whose two rows are equal share one values tuple.
        by_rows = {}
        boundaries = dict(rows)
        for values, index in (leaf for run in runs for leaf in zip(run[4], run[3])):
            k1, k2 = divmod(index - base, width)
            assert by_rows.setdefault((boundaries[k1], boundaries[k2]), values) is values

    def test_no_position_node_before_the_returned_program(self, monkeypatch, trained):
        want = parse_program("(substr (input) (abspos 0) (cpos 92 -1))")
        calls = []
        for name in ("abspos", "cpos"):
            make = getattr(dsl, name)
            monkeypatch.setattr(dsl, name, lambda *args, make=make: calls.append(args) or make(*args))
        synth = Synthesizer(E3, trained.templates, trained.table)
        leaves = leaf_runs(synth)
        assert leaves and synth.positions and not calls
        result = synth.run(require_correct=True)
        # Only ``_node`` of the returned record makes its position nodes.
        assert result.program == want
        assert calls == [(0,), (92, -1)]


class TestLazyNode:
    """A record's node, rebuilt from its leaves, is the program its size and values describe."""

    @staticmethod
    def check(synth, seen, inputs):
        """Each pooled record, at its size, and each record the run derived."""
        records = [(rec.size, rec) for rec in seen.pooled()]
        records += [(None, rec) for rec, _, _ in seen.derived()]
        for size, rec in records:
            node = seen.node(synth, rec)
            assert size is None or node.size == size, print_program(node)
            assert tuple(eval_node(node, x) for x in inputs) == rec[0], print_program(node)
            if rec[2] is not None:
                assert node == concat(seen.node(synth, rec[2]), seen.node(synth, rec[3])), print_program(node)

    def test_first_candidates_under_the_top_table(self, monkeypatch):
        # Nothing is accepted, so the run enumerates up to its budget.
        monkeypatch.setattr(synthesizer, "gamma_contains", lambda state, out: False)
        monkeypatch.setattr(oracles, "state_holds", lambda state, s: False)
        task = SynthesisTask(examples=E2.examples, max_candidates=20_000)
        synth = Synthesizer(task, [TOP], TransformerTable())
        seen = record(monkeypatch, synth)
        result = synth.run(require_correct=True)
        assert result.reason == "candidate-budget" and result.enumerated == 20_001
        found = reference_search(task, [TOP], TransformerTable(), True)
        assert outcome(result) == outcome(found)
        assert any(rec[2] is not None for rec in seen.pooled())
        assert_pools_match(synth, seen, found)
        self.check(synth, seen, E2.inputs)

    def test_full_run_of_e2(self, monkeypatch, table_a2):
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        seen = record(monkeypatch, synth)
        result = synth.run(require_correct=True)
        found = reference_search(E2, FIVE_TEMPLATES, table_a2, True)
        assert outcome(result) == outcome(found)
        assert_pools_match(synth, seen, found)
        self.check(synth, seen, E2.inputs)


class TestRecords:
    def test_records_are_untracked_by_the_collector(self, monkeypatch):
        # The pools' columns hold keys, ids, left records and indexes.  A left
        # record holding a node, a state or any class instance stays
        # tracked, and every full collection then walks the pools
        # (invariant records).
        monkeypatch.setattr(synthesizer, "gamma_contains", lambda state, out: False)
        task = SynthesisTask(examples=E2.examples, max_candidates=20_000)
        synth = Synthesizer(task, [TOP], TransformerTable())
        seen = record(monkeypatch, synth)
        assert synth.run(require_correct=True).reason == "candidate-budget"
        # A collection untracks a tuple only when its items are untracked
        # already, and it may visit a record before its children; but each
        # one untracks every record whose children it found untracked.  So
        # collect until a collection untracks nothing more.
        records = [item for pool in seen.pools.values() for column in pool for item in column]
        records += [rec for left_records in seen.reads[0].values() for rec in left_records]
        assert any(isinstance(rec, tuple) for rec in records)
        tracked = records
        while tracked:
            gc.collect()
            left = [rec for rec in tracked if gc.is_tracked(rec)]
            if len(left) == len(tracked):
                break
            tracked = left
        assert not tracked, f"{len(tracked)} of {len(records)} records tracked, first {tracked[0]!r:.200}"

    def test_timeout_exit(self):
        # Under top, eval_wrap_dir exhausts the 200,000 budget when it has time.
        _, task = load_task(corpus_dir() / "eval_wrap_dir.json", 14, 200_000, 1)
        result = Synthesizer(task, [TOP], TransformerTable()).run(require_correct=True)
        assert result.reason == "timeout"
        assert result.program is None
        assert 0 < result.enumerated < task.max_candidates
        assert result.enumerated % 256 == 0
        assert result.deduped + result.pruned_abstract <= result.enumerated
        assert result.wall_us > 0


def unreduced_eval(node, e_in, templates, table, pool):
    """``abstract_eval`` with every leaf fact kept."""
    if node.op is Op.CONCAT:
        return apply_transformer(table, tuple(unreduced_eval(c, e_in, templates, table, pool) for c in node.children))
    return full_abstraction(eval_node(node, e_in), templates, pool)


ABZ = st.text(alphabet="abz", max_size=4)
PROGRAMS = st.recursive(
    st.one_of(st.just(input_()), st.builds(const, st.text(alphabet="abz", min_size=1, max_size=3))),
    lambda children: st.builds(concat, children, children),
    max_leaves=5,
)


def neighbours(value: str) -> set[str]:
    """``value``, its prefixes, and every string one edit over "abz" away."""
    near = {value[:i] for i in range(len(value) + 1)} | {value + c for c in "abz"}
    near |= {value[:i] + c + value[i + 1 :] for i in range(len(value)) for c in "abz"}
    return near


def reduced_and_unreduced(data, table):
    """A random program over "abz" and input, with its value and both of its states."""
    templates = [TOP, *data.draw(st.sets(st.sampled_from([LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ])))]
    node, e_in = data.draw(PROGRAMS), data.draw(ABZ)
    pool = ConstantPool.default(["abz"])
    got = abstract_eval(node, e_in, templates, table, pool)
    want = unreduced_eval(node, e_in, templates, table, pool)
    if got is not BOTTOM:
        assert want is BOTTOM or got.conjuncts <= want.conjuncts
    value = eval_node(node, e_in)
    strings = sorted(neighbours(value) | set(data.draw(st.lists(st.text("abz", max_size=12)))))
    return value, got, want, strings


class TestReducedLeaves:
    """Leaves are always in reduced form.  That is sound under any table, and
    under the learned tables it keeps the concretization of the full leaves
    (invariant reduced-leaves)."""

    def test_closed_table_reduces_leaves(self, table_a2):
        # The leaf is exact, and best_abstraction, which the synthesizer
        # skips for it, gives its widened form: no implied inequality.
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        assert synth._abstract_value("ab") == "ab"
        state = best_abstraction("ab", FIVE_TEMPLATES, synth.pool)
        assert state == widen("ab")
        assert state.conjuncts == {len_eq(2), char_eq(0, ord("a")), char_eq(1, ord("b"))}

    def test_open_table_loses_precision_not_soundness(self, open_table):
        templates = [TOP, LEN_EQ, LEN_NEQ]
        synth = Synthesizer(SynthesisTask(examples=(("ab", "abz"),)), templates, open_table)
        assert synth._abstract_value("ab").conjuncts == {len_eq(2)}
        node, pool = concat(input_(), const("z")), ConstantPool.default(["ab", "abz"])
        state = abstract_eval(node, "ab", templates, open_table, pool)
        # Full leaves derive (len != 1) from (len != 0) and (len = 1); reduced leaves derive nothing.
        assert len_neq(1) in unreduced_eval(node, "ab", templates, open_table, pool).conjuncts
        assert state is AbstractValue.top()

    @pytest.mark.parametrize("which", ["table_a2", "seed-0", "seed-1", "seed-705"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_reduced_and_unreduced_agree_on_gamma(self, request, trained_at, which, data):
        table = trained_at[int(which[5:])].table if which.startswith("seed") else request.getfixturevalue(which)
        _, got, want, strings = reduced_and_unreduced(data, table)
        assert (got is BOTTOM) == (want is BOTTOM)
        assert [gamma_contains(got, s) for s in strings] == [gamma_contains(want, s) for s in strings]

    @pytest.mark.parametrize("which", ["open_table", "slots_removed"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sound_under_any_table(self, request, which, data):
        if which == "slots_removed":
            full = request.getfixturevalue("table_a2")
            removed = data.draw(st.sets(st.sampled_from(table_outputs(full))))
            table = with_outputs(full, lambda t, o: (t.inputs, o) not in removed)
        else:
            table = request.getfixturevalue(which)
        value, got, want, strings = reduced_and_unreduced(data, table)
        assert gamma_contains(got, value)
        for s in strings:
            assert gamma_contains(got, s) or not gamma_contains(want, s), s


class TestNormalizedTableIsExact:
    """Normalizing a table changes no derived state (invariant
    normalized-table)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normalizing_keeps_every_derived_state(self, table_a2, data):
        old = entries_with_top_copies(table_a2)
        removed = data.draw(st.sets(st.sampled_from(entry_outputs(old))))
        entries = outputs_kept(old, lambda t, o: (t.inputs, o) not in removed)
        table = TransformerTable(entries)
        assert set(table.entries) <= {t.inputs for t in entries} and all(t.outputs for t in table.all())
        assert table_outputs(TransformerTable(table.all())) == table_outputs(table)
        # The table derives what all of the given entries derive.
        left, right = data.draw(STATES), data.draw(STATES)
        assert facts_of(apply_transformer(table, (left, right))) == _brute_force_apply(entries, left, right)


def corpus_tasks(budget):
    """The 18 corpus tasks by name, at the CLI's size limit and ``budget`` candidates."""
    return {p.stem: load_task(p, 14, budget, None)[1] for p in sorted(corpus_dir().glob("*.json"))}


def not_substrings(values, outputs) -> bool:
    return not all(map(operator.contains, outputs, values))


class TestSubstringCheck:
    """A candidate's values lie in its states' concretizations, so a state
    whose value is a substring of its output embeds in it: under a sound
    table the synthesizer prunes only what the substring check prunes."""

    @pytest.mark.parametrize("which", ["seed-0", "seed-1", "seed-705", "hand-made"])
    def test_pruned_candidates_have_a_value_that_is_not_a_substring(self, monkeypatch, trained_at, which):
        if which == "hand-made":
            # HAND_MADE's len = entry (2 len(a) + len(b) - 1) is unsound; without
            # the len = template only its sound entries fire.
            templates, table = [TOP, LEN_NEQ, CHAR_EQ], HAND_MADE
        else:
            run = trained_at[int(which[5:])]
            templates, table = run.templates, run.table
        pruned = 0
        for name, task in corpus_tasks(20_000).items():
            synth = Synthesizer(task, templates, table)
            seen = record(monkeypatch, synth)
            synth.run(require_correct=True)
            for rec, _, embeds in seen.derived():
                if not embeds:
                    pruned += 1
                    assert not_substrings(rec[0], task.outputs), (name, print_program(seen.node(synth, rec)))
        assert pruned > 0

    def test_an_unsound_table_prunes_a_substring(self, monkeypatch):
        # Under the len = template HAND_MADE's unsound entry makes
        # (concat (input) (const "2018")) too long for "CAV2018".
        synth = Synthesizer(E1, FIVE_TEMPLATES, HAND_MADE)
        seen = record(monkeypatch, synth)
        synth.run(require_correct=True)
        assert any(not embeds and not not_substrings(rec[0], E1.outputs) for rec, _, embeds in seen.derived())

    def test_the_seed_0_bundle_searches_as_the_substring_check(self, trained, monkeypatch):
        # The substring check is the reference with each candidate's values
        # as its states: a value embeds iff it is a substring of its output,
        # and is accepted iff it is the output.
        monkeypatch.setattr(oracles, "best_abstraction", lambda value, templates, pool: value)
        monkeypatch.setattr(oracles, "apply_transformer", lambda table, pair: pair[0] + pair[1])
        monkeypatch.setattr(oracles, "state_embeds_scan", lambda value, out: value in out)
        monkeypatch.setattr(oracles, "state_holds", operator.eq)
        for name, task in corpus_tasks(200_000).items():
            result = Synthesizer(task, trained.templates, trained.table).run(require_correct=True)
            assert outcome(result) == outcome(reference_search(task, [], None, True)), name


# The three entries that keep states exact, each as an output filter for ``with_outputs``.
EXACT_ENTRIES = {
    "len-sum": lambda t, o: t.inputs == (LEN_EQ, LEN_EQ) and o == (LEN_EQ, ((1, 1, 0),)),
    "top-copy": lambda t, o: t.inputs == (CHAR_EQ, TOP) and o[0] is CHAR_EQ,
    "shift": lambda t, o: t.inputs == (LEN_EQ, CHAR_EQ) and o[0] is CHAR_EQ,
}


def without(table, entry):
    return with_outputs(table, lambda t, o: not EXACT_ENTRIES[entry](t, o))


def run_states(monkeypatch, synth) -> list:
    """Every state a ``require_correct`` run of ``synth`` derived, tested or
    judged: the states of each record it derived, pruned ones included, the
    values of each exact candidate it tested in bulk, which are its states,
    and each state it judged.  Every vector it registered is among them."""
    seen = record(monkeypatch, synth)
    synth.run(require_correct=True)
    derived = [s for _, states, _ in seen.derived() for s in states]
    return derived + [s for rec, _ in seen.tested() for s in rec[0]] + seen.judged_states()


class TestExactStates:
    """Under a table that keeps exactness, a state that pins its value is that
    ``str`` (invariant exact-states)."""

    @pytest.mark.parametrize("seed", [0, 1, 705])
    def test_learned_tables_keep_exactness_and_need_all_three_entries(self, trained_at, seed):
        table = trained_at[seed].table
        assert table.keeps_exact
        for entry, present in EXACT_ENTRIES.items():
            assert any(present(t, o) for t in table.all() for o in t.outputs), entry
            assert not without(table, entry).keeps_exact, entry
        assert not HAND_MADE.keeps_exact and not TransformerTable().keeps_exact

    @pytest.mark.parametrize("case", ["len-sum", "top-copy", "shift", "no-char-eq", "no-len-eq"])
    def test_no_exact_state_unless_table_and_templates_keep_it(self, monkeypatch, trained, case):
        task = SynthesisTask(examples=E2.examples, max_candidates=5_000)
        assert any(isinstance(s, str) for s in run_states(monkeypatch, Synthesizer(task, trained.templates, trained.table)))
        templates, table = trained.templates, trained.table
        if case.startswith("no-"):
            templates = [t for t in templates if t is not {"no-char-eq": CHAR_EQ, "no-len-eq": LEN_EQ}[case]]
        else:
            table = without(table, case)
        states = run_states(monkeypatch, Synthesizer(task, templates, table))
        assert states and not any(isinstance(s, str) for s in states)

    @settings(max_examples=200, deadline=None)
    @given(a=ABZ, b=ABZ, out=st.text(alphabet="abz", max_size=10))
    def test_exact_pairs_concatenate_and_widen_to_the_same_concretization(self, trained, a, b, out):
        table = trained.table
        assert apply_transformer(table, (a, b)) == a + b
        strings = sorted(neighbours(a + b) | {out})
        for pair in ((widen(a), widen(b)), (widen(a), b), (a, widen(b))):
            got = apply_transformer(table, pair)
            assert [gamma_contains(got, s) for s in strings] == [s == a + b for s in strings], pair
        for v in (a, b, a + b):
            assert state_embeds(v, out) == state_embeds(widen(v), out) == (v in out)
            assert [gamma_contains(v, s) for s in strings] == [gamma_contains(widen(v), s) for s in strings]

    def test_a_leaf_past_the_index_prefix_stays_an_abstract_value(self, trained):
        synth = Synthesizer(E2, trained.templates, trained.table)
        ((start, stop), *_) = _index_runs(synth.pool.indices)
        assert start == 0
        assert synth._abstract_value("x" * stop) == "x" * stop
        state = synth._abstract_value("x" * (stop + 1))
        assert isinstance(state, AbstractValue)
        assert state == best_abstraction("x" * (stop + 1), trained.templates, synth.pool)
        assert gamma_contains(state, "x" * stop + "y")


def takes_bulk(run) -> bool:
    """Whether ``run``, a run of ``_batch``, has every vector known, exact
    (sids None) or cached, so that ``Synthesizer.run`` takes it with set
    operations up to its first candidate whose values are the outputs
    (invariant bulk-runs)."""
    sids = run[1]
    return sids is None or None not in sids


def check_against_the_reference(task, templates, table, require_correct, pools, check=False) -> tuple[list, list]:
    """Check that a run of ``task`` has the outcome of ``reference_search``,
    and with ``pools`` that it pools what the reference keeps; with
    ``check``, the recorder checks each call of the run.  A run whose
    vectors are all known is taken in bulk, but for its candidates from
    the one whose values are the outputs, and every other run one at a
    time (invariant bulk-runs).  Returns the runs ``_batch`` yielded and,
    for each, how many of its candidates the
    run counted and neither dropped as repeats, pruned nor judged, leaving
    out the one counted past the budget.  Without ``require_correct`` those
    are the new candidates ``run`` took with set operations, and those it
    refused, unjudged, for a vector judged before (invariant registry).
    The reference's candidates are not kept past its check, so no later
    run's collections walk them."""
    synth = Synthesizer(task, templates, table)
    with pytest.MonkeyPatch.context() as monkeypatch:
        # No derivation is read, and their log grows with the run.
        seen = record(monkeypatch, synth, derivations=False, check=check)
        result = synth.run(require_correct=require_correct)
    found = reference_search(task, templates, table, require_correct)
    assert outcome(result) == outcome(found), task
    target = synth._sep.join(task.outputs)
    for n, taken in seen.singly.items():
        keys = seen.runs[n][0]
        assert taken == (len(keys) - keys.index(target) if target in keys else 0) if takes_bulk(seen.runs[n]) else taken == len(keys), (task, n)
    if pools:
        assert_pools_match(synth, seen, found)
    counts = [*seen.counts, (result.enumerated - (result.reason == "candidate-budget"), result.deduped, result.pruned_abstract)]
    judged = Counter(seen.judged())
    unjudged = [(e1 - e0) - (d1 - d0) - (p1 - p0) - judged[n] for n, ((e0, d0, p0), (e1, d1, p1)) in enumerate(zip(counts, counts[1:]))]
    return seen.runs, unjudged


class TestBulkRuns:
    """In both modes, a run whose vectors are all known, exact or cached, is
    taken in bulk up to its first candidate whose values are the outputs
    (invariant bulk-runs); a deadline cuts a run at a multiple of 256
    (invariant budget-cut)."""

    @pytest.fixture
    def domains(self, trained, table_a1):
        """Templates and table by domain name."""
        return {
            "top": ([TOP], TransformerTable()),
            "length": ([TOP, LEN_EQ, LEN_NEQ], table_a1),
            "seed-0": (trained.templates, trained.table),
        }

    @pytest.mark.parametrize("budget", [1, 255, 256, 257, 4_097, 20_000, 200_000])
    @pytest.mark.parametrize("domain", ["top", "length", "seed-0"])
    @pytest.mark.parametrize("require_correct", [True, False])
    def test_bulk_runs_change_no_outcome(self, domains, domain, require_correct, budget):
        templates, table = domains[domain]
        bulk, longest, unjudged = 0, [], 0
        for name, task in corpus_tasks(budget).items():
            runs, not_judged = check_against_the_reference(task, templates, table, require_correct, pools=domain == "seed-0")
            bulk_runs = [len(run[0]) for run in runs if takes_bulk(run)]
            bulk += len(bulk_runs)
            longest.append(max(len(run[0]) for run in runs))
            assert min(not_judged) >= 0, name
            if not require_correct:
                # In the runs ``takes_bulk`` names, only the set-operation
                # branch leaves a new candidate unjudged; elsewhere only the
                # refusal of a vector judged before does.
                in_bulk = sum(n for run, n in zip(runs, not_judged) if takes_bulk(run))
                assert in_bulk <= sum(bulk_runs), name
                unjudged += in_bulk
        # Every run holds at most 256 records, the deadline's period.
        assert max(longest) <= 256
        # Without require_correct, top accepts the input at once.
        expects_bulk = {"top": require_correct, "length": True, "seed-0": True}[domain]
        assert bulk or not expects_bulk or budget < 4_097
        # Seen from outside ``run``: it took candidates with set operations.
        assert unjudged or require_correct or not expects_bulk or budget < 4_097

    def test_a_deadline_passed_inside_a_bulk_run_stops_at_a_multiple_of_256(self, monkeypatch, table_a1):
        # (invariant budget-cut) Under the length table without require_correct, a candidate taken
        # one at a time that is neither a repeat nor pruned is judged.
        _, task = load_task(corpus_dir() / "e3.json", 14, 200_000, 1)
        synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1)
        # Late at a bulk run that holds a multiple of 256.
        seen = record(monkeypatch, synth, late=lambda run, counted: takes_bulk(run) and (counted + len(run[0])) // 256 * 256 > counted)
        result = synth.run()
        assert result.reason == "timeout"
        assert result.enumerated % 256 == 0
        # The run stopped inside that bulk run: it asked for nothing after it.
        assert seen.late == len(seen.runs) - 1
        # It took some new candidates of that run and judged none of them, so
        # it took them with set operations.
        taken = seen.runs[-1][0][: result.enumerated - seen.counted - 1]
        assert set(taken) - {v for run in seen.runs[:-1] for v in run[0]}
        assert seen.late not in seen.judged()

    def test_a_deadline_passed_inside_a_run_taken_candidate_by_candidate_stops_at_a_multiple_of_256(self, monkeypatch, table_a1):
        # (invariant budget-cut) PHONES has no solution, so only the deadline
        # ends the run early.
        task = SynthesisTask(examples=PHONES.examples, timeout_ms=1_000)
        synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1)
        seen = record(monkeypatch, synth, late=lambda run, _: run[2] is not None and len(run[0]) == 256 and not takes_bulk(run))
        result = synth.run(require_correct=True)
        assert result.reason == "timeout"
        assert result.enumerated % 256 == 0
        assert seen.late == len(seen.runs) - 1
        # The late run derived records, which the set-operation branch never
        # does.
        assert ("derive", seen.late) in (entry[:2] for entry in seen.log)
        # Between the start and the end, the clock is read at most once per
        # run, before the run derives any of its records: each read comes
        # right after its run is given.
        reads = [i for i, entry in enumerate(seen.log) if entry[0] == "clock"][1:-1]
        assert reads and all(seen.log[i - 1] == ("run", seen.log[i][1]) for i in reads)
        assert seen.log[reads[-1]][1] == seen.late

    def test_exact_runs_are_taken_in_bulk(self, trained, monkeypatch):
        # Under the seed-0 bundle no concatenation of two exact records is
        # derived: every vector of its run is known, so the run is taken in
        # bulk up to its candidate equal to the outputs, and each candidate
        # before it, even one whose left value starts every output, is
        # tested there.  Every value of eval_phone_dash is exact, so no
        # candidate is derived at all.
        _, task = load_task(corpus_dir() / "eval_phone_dash.json", 14, 200_000, None)
        synth = Synthesizer(task, trained.templates, trained.table)
        seen = record(monkeypatch, synth, check=True)
        result = synth.run(require_correct=True)
        assert result.correct
        assert not seen.derived()
        tested = seen.tested()
        assert any(rec[2] is not None and all(map(str.startswith, task.outputs, rec[2][0])) for rec, _ in tested)
        assert any(embeds for _, embeds in tested) and not all(embeds for _, embeds in tested)

    def test_a_slice_is_exact_when_its_own_records_are(self, trained, monkeypatch):
        # Pool 1 holds the input, longer than the leaves the seed-0 bundle
        # pins whole and a substring of the output, then over 256
        # constants, all exact: its first slice is not exact and the second
        # is, so a constant beside the second makes an exact run and beside
        # the first a derived one (invariant bulk-runs).  The recorder
        # checks each run's flag.
        task = SynthesisTask(examples=(("x" * 30, "x" * 30 + "".join(map(chr, range(65, 125)))),), max_ast_size=3, max_candidates=20_000)
        synth = Synthesizer(task, trained.templates, trained.table)
        assert len(task.inputs[0]) > synth._exact_len and len(synth.consts) > 256
        seen = record(monkeypatch, synth, check=True)
        assert synth.run(require_correct=True).reason == "candidate-budget"
        beside = [run for run in seen.runs if run[2] is not None and seen.vectors[run[2][1]] == run[2][0]]
        assert any(run[1] is None and run[3][0] == 256 for run in beside)
        assert beside and all(run[1] is not None for run in beside if run[3][0] == 0)

    @pytest.mark.parametrize("budget", [20_000, 200_000])
    @pytest.mark.parametrize("require_correct", [True, False])
    def test_an_exact_run_is_taken_to_its_end_past_a_repeat_of_the_outputs(self, monkeypatch, require_correct, budget):
        # An unsound table that keeps states exact: its ``len !=`` row
        # refutes the ``len =`` sum.  The input is longer than the exact
        # leaves, so ``(concat (input) (const "!"))`` is derived, to bottom,
        # and pruned with the outputs as its values.  An exact run of size 5
        # holds the outputs again, as a repeat, and the rest of that run is
        # still taken one at a time (invariant bulk-runs), as when
        # ``_batch`` hands every exact run to that path.
        templates = [TOP, LEN_EQ, CHAR_EQ]
        entries = [Transformer(pair, tuple(sound_outputs(*pair))) for pair in ((LEN_EQ, CHAR_EQ), (CHAR_EQ, TOP))]
        entries.append(Transformer((LEN_EQ, LEN_EQ), (*sound_outputs(LEN_EQ, LEN_EQ), (LEN_NEQ, ((1, 1, 0),)))))
        table = TransformerTable(entries)
        task = SynthesisTask(examples=(("abcdefghijklmnopq", "abcdefghijklmnopq!"),), max_candidates=budget)
        synth = Synthesizer(task, templates, table)
        assert table.keeps_exact and synth._exact_len < len(task.inputs[0])
        seen = record(monkeypatch, synth)
        bulk = synth.run(require_correct)
        # With one example a key is its value.
        holding = [run[1] is None for run in seen.runs if task.outputs[0] in run[0]]
        assert holding[0] is False and True in holding[1:]
        synth = Synthesizer(task, templates, table)
        batch = synth._batch
        synth._batch = lambda *args: ((keys, [None] * len(keys) if sids is None else sids, *rest) for keys, sids, *rest in batch(*args))
        assert outcome(bulk) == outcome(synth.run(require_correct))

    def test_runs_with_every_vector_known_are_judged_only_at_the_outputs(self, table_a1, monkeypatch):
        # The length table keeps no state exact, so a run whose vectors are
        # all known is all cached. Without require_correct it holds no
        # candidate that can be accepted but one whose values are the outputs,
        # which is accepted, whatever its left value (invariant bulk-runs).
        # So ``gamma_contains`` judges a candidate of such a run only as the
        # last, returned one, and only when its values are the outputs.
        prefixed = 0
        for name, task in corpus_tasks(20_000).items():
            if not name.startswith("eval_"):
                continue
            synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table_a1)
            seen = record(monkeypatch, synth)
            result = synth.run()
            runs = [seen.runs[n] for n in seen.judged()]  # the run of each judgement
            known = [i for i, run in enumerate(runs) if takes_bulk(run)]
            assert known in ([], [len(runs) - 1]), name
            assert not known or result.correct, name
            cached = [run for run in seen.runs if run[1] is not None and takes_bulk(run)]
            prefixed += sum(all(map(str.startswith, task.outputs, run[2][0])) for run in cached)
        # Some cached runs have a left value that starts every output.
        assert prefixed

    def test_an_exact_task_derives_no_candidate(self, trained, monkeypatch):
        # Under the seed-0 bundle every value of eval_phone_dash is exact:
        # no candidate is derived and no state goes through the rules, and
        # the returned one is judged on its values, which are the outputs.
        # E3's longest leaves are not exact, so leaves are derived there.
        _, task = load_task(corpus_dir() / "eval_phone_dash.json", 14, 200_000, None)
        synth = Synthesizer(task, trained.templates, trained.table)
        seen = record(monkeypatch, synth)
        assert synth.run(require_correct=True).correct
        assert not seen.derived() and not seen.calls["apply_transformer"]
        assert seen.accepted[0] == task.outputs and seen.judged_states() == list(task.outputs) and len(seen.judged()) == 1
        synth = Synthesizer(E3, trained.templates, trained.table)
        seen = record(monkeypatch, synth)
        assert synth.run(require_correct=True).correct
        assert any(rec[2] is None for rec, _, _ in seen.derived())

    @pytest.mark.parametrize("require_correct", [True, False])
    def test_budgets_around_an_accepted_substring_leaf(self, trained, require_correct):
        # The answer is a substring leaf in the second of two exact leaf
        # runs, found at 310 candidates: a budget of 309 cuts that run just
        # before it (invariant budget-cut).
        examples = (("user=alice;id=7", "alice;"), ("grp=staff;id=42", "staff;"))
        found = Synthesizer(SynthesisTask(examples=examples), trained.templates, trained.table).run(require_correct)
        assert str(found.program) == "(substr (input) (cpos 61 -2) (cpos 59 -1))" and found.enumerated == 310
        for budget in (309, 310, 311):
            task = SynthesisTask(examples=examples, max_candidates=budget)
            check_against_the_reference(task, trained.templates, trained.table, require_correct, pools=True)

    def test_a_run_without_require_correct_after_one_with_it_repeats_a_fresh_one(self, table_a1):
        # Each run starts its own registry, so no vector registered by the run
        # with require_correct is taken, or accepted, by the run without it.
        _, task = load_task(corpus_dir() / "eval_dirname.json", 14, 20_000, None)
        templates = [TOP, LEN_EQ, LEN_NEQ]
        synth = Synthesizer(task, templates, table_a1)
        synth.run(require_correct=True)
        again = outcome(synth.run(require_correct=False))
        fresh = outcome(Synthesizer(task, templates, table_a1).run(require_correct=False))
        assert again == fresh
        assert fresh[0] == '(concat (const "/bi") (const "/usr/b"))' and fresh[3] == 228

    def test_a_level_the_budget_cuts_is_not_pooled(self, monkeypatch):
        # Under top every new value embeds, so every level a later level reads
        # is pooled; the budget ends the run inside the last one (invariant
        # pooled-levels).
        _, task = load_task(corpus_dir() / "eval_wrap_dir.json", 14, 20_000, None)
        synth = Synthesizer(task, [TOP], TransformerTable())
        seen = record(monkeypatch, synth)
        result = synth.run(require_correct=True)
        assert result.reason == "candidate-budget"
        found = reference_search(task, [TOP], TransformerTable(), True)
        assert outcome(result) == outcome(found)
        # The reference kept new values at the size the budget cut, which
        # the run left unpooled.
        cut = max(seen.pools)
        assert found.kept[cut] and seen.pool(cut) == []
        assert seen.pool(1) and seen.pool(3)

    @pytest.mark.parametrize("budget", [1_000, 20_000, 200_000])
    def test_a_level_is_pooled_iff_its_own_and_the_next_concatenations_fit_the_budget(self, monkeypatch, budget):
        # Under top every new value embeds.  A level that holds new values
        # is pooled iff a size two up exists and the candidates counted
        # before it, plus the concatenations of its size and the next, made
        # of the pools below it, fit the budget (invariant pooled-levels).
        # At 20,000, level 4's 78 new leaves are not pooled: size 5 alone
        # makes 2 * 49 * 2,142 concatenations.  Pooling them changes no
        # outcome, only memory.
        _, task = load_task(corpus_dir() / "eval_wrap_dir.json", 14, budget, None)
        synth = Synthesizer(task, [TOP], TransformerTable())
        seen = record(monkeypatch, synth, derivations=False)
        result = synth.run(require_correct=True)
        found = reference_search(task, [TOP], TransformerTable(), True)
        assert outcome(result) == outcome(found)
        lengths = {size: len(pool[0]) for size, pool in seen.pools.items()}

        def concats(size) -> int:
            return sum(lengths[sa] * lengths[size - 1 - sa] for sa in range(1, size - 1))

        levels = [size for size in seen.pools if found.kept[size] and size in seen.sizes]
        for size in levels:
            before = seen.counts[seen.sizes.index(size)][0]
            pooled = size + 2 <= task.max_ast_size and before + concats(size) + concats(size + 1) <= budget
            assert bool(lengths[size]) == pooled, size
        if budget == 20_000:
            assert 4 in levels and lengths[4] == 0


class TestEmptySizes:
    def test_a_task_no_pair_of_pools_can_grow_is_exhausted_at_once(self, trained):
        # One input with two outputs: nothing is accepted, and the seed-0
        # bundle pools no candidate past size 4.  The run stops at the first
        # size no two pools can fill, with the counts it has at any size
        # limit past it, and does not walk the sizes up to the limit
        # (invariant pooled-levels).
        results = []
        for max_size in (14, 30, 10**9):
            task = SynthesisTask(examples=(("a", "x"), ("a", "y")), max_ast_size=max_size, timeout_ms=1000)
            results.append(outcome(Synthesizer(task, trained.templates, trained.table).run(require_correct=True)))
        assert results == [("None", None, "exhausted", 25, *results[0][4:])] * 3
        task = SynthesisTask(examples=(("a", "x"), ("a", "y")), max_ast_size=30)
        assert outcome(reference_search(task, trained.templates, trained.table, True)) == results[0]


# Small tasks: empty strings, inputs that lack a character another input
# has (so its ``cpos`` positions have no boundary there) and outputs that
# share few substrings with the inputs.
SMALL_EXAMPLES = st.lists(
    st.tuples(st.text(alphabet="ab./", max_size=8), st.text(alphabet="ab./", max_size=4)),
    min_size=1,
    max_size=3,
)


class TestReferenceSearch:
    """``run`` returns and pools what a search in rank order does (invariant
    rank-order)."""

    @pytest.mark.parametrize("domain", ["top", "seed-0"])
    @settings(max_examples=100, deadline=None)
    @given(
        examples=SMALL_EXAMPLES,
        max_size=st.integers(1, 9),
        budget=st.integers(1, 3_000),
        require_correct=st.booleans(),
    )
    @example(examples=[("a.b", "b/"), ("ab", "")], max_size=9, budget=3_000, require_correct=True)
    @example(examples=[("a.a.a/", "a."), ("aa/a.", "/a")], max_size=6, budget=3_000, require_correct=True)
    @example(examples=[("", "a"), ("/", "./")], max_size=7, budget=3_000, require_correct=False)
    # A constant that starts every output, then the input: under top, the
    # constant's run is all cached and holds the outputs.
    @example(examples=[("a", "/a"), ("b", "/b")], max_size=3, budget=3_000, require_correct=True)
    def test_run_equals_the_reference_on_small_tasks(self, trained, domain, examples, max_size, budget, require_correct):
        templates, table = ([TOP], TransformerTable()) if domain == "top" else (trained.templates, trained.table)
        task = SynthesisTask(examples=tuple(examples), max_ast_size=max_size, max_candidates=budget)
        check_against_the_reference(task, templates, table, require_correct, pools=True, check=True)


def sound_outputs(k1, k2) -> list:
    """The outputs a drawn table may give the entry ``(k1, k2)``: the
    ``len =`` sum, the copy and the shift, where their inputs match."""
    outputs = []
    if (k1, k2) == (LEN_EQ, LEN_EQ):
        outputs.append((LEN_EQ, ((1, 1, 0),)))
    if k1 is CHAR_EQ:
        zeros = (0,) * (k2.holes + 1)
        outputs.append((CHAR_EQ, ((1, 0, *zeros), (0, 1, *zeros))))
    if (k1, k2) == (LEN_EQ, CHAR_EQ):
        outputs.append((CHAR_EQ, ((1, 1, 0, 0), (0, 0, 1, 0))))
    return outputs


@st.composite
def sound_tables(draw) -> tuple[list, TransformerTable]:
    """A template set with ``top`` and a sound table over it: each pair of
    its templates gets a subset of ``sound_outputs`` and, with ``len !=``
    in the set, up to two ``len !=`` rows with coefficients in -2..2, each
    kept only where ``counterexample`` finds none.  The table is built
    through ``TransformerTable``, so it is normalized as a learned one is."""
    templates = [TOP, *(k for k in (LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ) if draw(st.booleans()))]
    entries = []
    for k1, k2 in product(templates, repeat=2):
        # Each offered output three times in four, so that about one table in
        # seven keeps states exact.
        outputs = [o for o in sound_outputs(k1, k2) if draw(st.integers(0, 3))]
        if LEN_NEQ in templates:
            rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (k1.holes + k2.holes + 1)), max_size=2))
            outputs += [(LEN_NEQ, (row,)) for row in rows if counterexample((k1, k2), LEN_NEQ, (row,)) is None]
        if outputs:
            entries.append(Transformer((k1, k2), tuple(outputs)))
    return templates, TransformerTable(entries)


# Drawable domains: three templates and only the three exact entries, which
# keep states exact; the top copy with the ``len !=`` row a + 1 - b over two
# lengths, which prunes where the copy alone does not; and the ``len =`` sum
# alone, under which leaves of one length share a vector.
EXACT_DOMAIN = [TOP, LEN_EQ, CHAR_EQ], TransformerTable(
    [Transformer(pair, tuple(sound_outputs(*pair))) for pair in ((LEN_EQ, LEN_EQ), (LEN_EQ, CHAR_EQ), (CHAR_EQ, TOP))]
)
LEN_NEQ_DOMAIN = [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ], TransformerTable(
    [Transformer((CHAR_EQ, TOP), tuple(sound_outputs(CHAR_EQ, TOP))), Transformer((LEN_EQ, LEN_EQ), ((LEN_NEQ, ((1, -1, 1),)),))]
)
LEN_SUM_DOMAIN = [TOP, LEN_EQ], TransformerTable([Transformer((LEN_EQ, LEN_EQ), tuple(sound_outputs(LEN_EQ, LEN_EQ)))])


class TestRandomSoundTables:
    """``run`` returns and pools what a search in rank order does under any
    sound table (invariant rank-order), whichever of the exact entries and
    templates it has (invariants exact-states and bulk-runs)."""

    @settings(max_examples=100, deadline=None)
    @given(
        domain=sound_tables(),
        examples=SMALL_EXAMPLES,
        max_size=st.integers(1, 9),
        budget=st.integers(1, 3_000),
        require_correct=st.booleans(),
    )
    @example(domain=EXACT_DOMAIN, examples=[("ab.ba", "ba/ab"), ("b.a", "a/b")], max_size=9, budget=3_000, require_correct=True)
    @example(domain=EXACT_DOMAIN, examples=[("ab.ba", "ba/ab"), ("b.a", "a/b")], max_size=9, budget=3_000, require_correct=False)
    @example(domain=LEN_NEQ_DOMAIN, examples=[(".b", "./"), ("//aa.", "./b")], max_size=7, budget=3_000, require_correct=True)
    # Left records of two vectors meet one pool slice while the concat cache
    # keeps its size, so a slice's lookups reused across left ids would
    # give the second the first one's vectors.
    @example(domain=LEN_SUM_DOMAIN, examples=[("", "a/"), ("", "aaa")], max_size=3, budget=3_000, require_correct=False)
    def test_run_equals_the_reference(self, domain, examples, max_size, budget, require_correct):
        templates, table = domain
        task = SynthesisTask(examples=tuple(examples), max_ast_size=max_size, max_candidates=budget)
        check_against_the_reference(task, templates, table, require_correct, pools=True)


class TestKeys:
    """A candidate is deduped and accepted by its values joined with the
    first code point in no input, output or literal, so equal keys mean
    equal values, and a key splits back to its values (invariant keys)."""

    @pytest.mark.parametrize("require_correct", [True, False])
    @pytest.mark.parametrize("domain", ["top", "seed-0"])
    @pytest.mark.parametrize(
        "examples, literals, sep",
        [
            ((("a\x00b", "b\x01a"), ("\x01a\x00", "\x00\x01")), ("\x00\x01",), "\x02"),
            ((("ab", "b-a"), ("cd", "d-c")), ("\x00",), "\x01"),
            (E2.examples, (), "\x00"),
        ],
        ids=["past-nul-and-soh", "nul-in-a-literal-only", "one-example"],
    )
    def test_the_separator_occurs_in_no_value(self, trained, examples, literals, sep, domain, require_correct):
        # The first task has U+0000 and U+0001 in its inputs, outputs and
        # literals; the second has U+0000 in a literal only; the third has
        # one example, so each key is its value.  The recorder checks that
        # each key splits back to its values.
        templates, table = ([TOP], TransformerTable()) if domain == "top" else (trained.templates, trained.table)
        task = SynthesisTask(examples=examples, literals=literals, max_ast_size=9, max_candidates=20_000)
        assert Synthesizer(task, templates, table)._sep == sep
        runs, _ = check_against_the_reference(task, templates, table, require_correct, pools=True, check=True)
        if len(examples) == 1:
            assert all(key == value for keys, *_, rows in runs if rows for key, (value,) in zip(keys, rows))

    def test_keys_joined_without_a_separator_would_merge_the_answer(self):
        # The input, ("a", "bab"), and the constant "ab", ("ab", "ab"), both
        # join to "abab"; the constant, which comes later, is the answer.
        task = SynthesisTask(examples=(("a", "ab"), ("bab", "ab")))
        assert "".join(task.inputs) == "".join(task.outputs) and task.inputs != task.outputs
        check_against_the_reference(task, [TOP], TransformerTable(), True, pools=True, check=True)
        assert str(Synthesizer(task, [TOP], TransformerTable()).run(require_correct=True).program) == '(const "ab")'


class TestCachedRuns:
    """``run`` takes a cached run with set operations, which counts its
    repeats right only because its values are distinct, and ``_batch``
    reuses a slice's lookups while the left id and the cache size are
    unchanged, which gives the sids only because a cache entry never
    changes (invariants bulk-runs and registry)."""

    @pytest.mark.parametrize("domain", ["top", "length"])
    def test_corpus_runs(self, monkeypatch, table_a1, domain):
        templates, table = ([TOP], TransformerTable()) if domain == "top" else ([TOP, LEN_EQ, LEN_NEQ], table_a1)
        cached = shared = 0
        for name, task in corpus_tasks(20_000).items():
            synth = Synthesizer(task, templates, table)
            seen = record(monkeypatch, synth, derivations=False, check=True)
            for require_correct in (True, False):
                synth.run(require_correct=require_correct)
            # No sids list was changed after it was given.
            assert all(sids == copy for sids, copy in seen.given), name
            cached += sum(sids is not None and None not in sids for _, sids, *_ in seen.runs)
            given = [id(sids) for sids, _ in seen.given]
            shared += len(given) - len(set(given))
        # The checks saw cached runs, and sids lists reused across runs.
        assert cached and shared

    @pytest.mark.parametrize("domain", ["top", "length"])
    @settings(max_examples=60, deadline=None)
    @given(examples=SMALL_EXAMPLES, max_size=st.integers(1, 9), require_correct=st.booleans())
    def test_small_tasks(self, table_a1, domain, examples, max_size, require_correct):
        templates, table = ([TOP], TransformerTable()) if domain == "top" else ([TOP, LEN_EQ, LEN_NEQ], table_a1)
        synth = Synthesizer(SynthesisTask(examples=tuple(examples), max_ast_size=max_size, max_candidates=3_000), templates, table)
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = record(monkeypatch, synth, derivations=False, check=True)
            synth.run(require_correct=require_correct)
        assert all(sids == copy for sids, copy in seen.given)
