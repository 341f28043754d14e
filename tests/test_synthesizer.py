import gc
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
    best_abstraction,
    char_eq,
    char_neq,
    gamma_contains,
    len_eq,
    len_neq,
    meet,
)
from atlas.dsl import (
    EvalError,
    Op,
    Program,
    concat,
    const,
    eval_node,
    evaluate,
    input_,
    parse_program,
    print_program,
    substr,
)
from atlas import synthesizer
from atlas.cli import load_task
from atlas.corpus import corpus_dir
from atlas.synthesizer import SynthesisTask, Synthesizer, apply_transformer, state_embeds
from atlas.transformers import Transformer, TransformerTable

from conftest import E1, E2, E3, held_states, record_stream, table_outputs, with_outputs, with_top_copies
from oracles import abstract_eval, full_abstraction, is_correct, state_embeds_scan


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
        assert table_a1.lookup((CHAR_EQ, CHAR_EQ)) is None
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
        assert apply_transformer(table_a2, (left, right)) == _brute_force_apply(table_a2, left, right)


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


# A table no training run learns: a coefficient of 2, outputs that predict
# a negative character index, derived ``char !=`` facts beside copied
# ``char =`` ones, and a ``top`` output.
HAND_MADE = TransformerTable(
    Transformer(inputs, outputs)
    for inputs, outputs in [
        ((LEN_EQ, LEN_EQ), ((LEN_EQ, ((2, 1, -1),)),)),
        ((CHAR_EQ, LEN_EQ), ((CHAR_NEQ, ((1, 0, -1, 0), (0, 1, 0, 0))),)),
        ((CHAR_EQ, CHAR_NEQ), ((CHAR_EQ, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),)),
        ((CHAR_NEQ, TOP), ((CHAR_NEQ, ((1, 0, -2), (0, 1, 0))),)),
        ((TOP, CHAR_EQ), ((TOP, ()), (LEN_NEQ, ((1, 0, 0),)))),
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
            assert gamma_contains(state, s) == all(gamma_contains(p, s) for p in state.conjuncts), s


class TestApplyTransformerAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 705])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_learned_tables(self, trained_at, seed, data):
        table = trained_at[seed].table
        left, right = draw_state(data, table), draw_state(data, table)
        assert apply_transformer(table, (left, right)) == _brute_force_apply(table, left, right)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hand_made_table(self, data):
        left, right = draw_state(data, HAND_MADE), draw_state(data, HAND_MADE)
        assert apply_transformer(HAND_MADE, (left, right)) == _brute_force_apply(HAND_MADE, left, right)

    def test_hand_made_table_drops_a_negative_index_and_the_top_output(self):
        left = val(char_eq(1, ord("a")), char_neq(1, ord("b")))
        got = apply_transformer(HAND_MADE, (left, val(len_eq(2), char_eq(0, ord("z")))))
        # Both char rules predict index 1 - 2; the top output adds nothing.
        assert got.conjuncts == {len_neq(0)}


def _brute_force_apply(table, left, right):
    """Every entry, every selection of one conjunct per argument, every output, met together."""
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    result = AbstractValue.top()
    for entry in table.all():
        per_arg = [
            [TOP_PRED] if t == TOP else [p for p in state.conjuncts if p.kind is t]
            for t, state in zip(entry.inputs, (left, right))
        ]
        for sel in product(*per_arg):
            vec = [v for p in sel for v in p.args] + [1]
            for chi, matrix in entry.outputs:
                args = tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)
                if chi in (CHAR_EQ, CHAR_NEQ) and args[0] < 0:
                    continue
                result = meet(result, val(chi.instantiate(args)))
    return result


class TestAbstractEval:
    def test_suffix_program_tracks_length(self, table_a1):
        p = parse_program('(concat (input) (const "2018"))')
        pool = ConstantPool.default(["CAV", "CAV2018"])
        state = abstract_eval(p.root, "CAV", [TOP, LEN_EQ, LEN_NEQ], table_a1, pool)
        assert len_eq(7) in state.conjuncts
        assert gamma_contains(state, "CAV2018")

    def test_closed_substr_is_exact(self, table_a2):
        p = parse_program("(substr (input) (abspos 0) (cpos 92 -1))")
        pool = ConstantPool.default(["\\a\\b.c"])
        state = abstract_eval(p.root, "\\a\\b.c", [TOP, LEN_EQ, CHAR_EQ], table_a2, pool)
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
    """Random states for ``state_embeds``: pinned characters, maybe a
    length, a run of ``len !=`` facts at or next to the shortest length the
    pins allow, and ``char !=`` facts that may lie past it."""
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
            assert evaluate(result.program, e_in) == e_out
        state = abstract_eval(
            result.program.root, "CAV", [TOP, LEN_EQ, LEN_NEQ], table_a1,
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
        assert is_correct(Program(concat(input_(), const("2018"))), E1)

    def test_wrong_program(self):
        assert not is_correct(Program(concat(input_(), const("18"))), E1)

    def test_identity(self):
        task = SynthesisTask(examples=(("a", "a"),))
        assert is_correct(Program(input_()), task)

    def test_eval_error_counts_as_incorrect(self):
        p = parse_program("(substr (input) (abspos 5) (abspos 9))")
        assert not is_correct(p, SynthesisTask(examples=(("ab", "ab"),)))


def derived_and_fresh(synth, rec, derived):
    """``(derived, fresh)``: the states ``run`` held for a logged record
    (``held_states``) and the record's whole vector by ``abstract_eval``.

    Checks that ``derived`` is a prefix of ``fresh`` and that it stops at
    the first state that does not embed its output, or runs to the end."""
    node = synth._node(rec)
    fresh = tuple(abstract_eval(node, e_in, synth.templates, synth.table, synth.pool) for e_in in synth.inputs)
    derived = held_states(synth, rec, derived)
    shown = print_program(Program(node))
    assert derived == fresh[: len(derived)], shown
    embeds = [state_embeds(s, out) for s, out in zip(derived, synth.outputs)]
    assert all(embeds[:-1]), shown
    assert len(derived) in (0, len(fresh)) or not embeds[-1], shown
    return derived, fresh


def last_fails_to_embed(states, outputs) -> bool:
    return bool(states) and not state_embeds(states[-1], outputs[len(states) - 1])


class TestEnumeratorProperties:
    def test_abstract_soundness_during_enumeration(self, table_a2):
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        stream = record_stream(synth)
        result = synth.run(require_correct=True)
        assert result.correct
        assert len(stream) == result.enumerated
        pruned = 0
        for _, rec, derived in stream:
            derived, fresh = derived_and_fresh(synth, rec, derived)
            assert all(gamma_contains(st, v) for st, v in zip(fresh, rec[0])), print_program(Program(synth._node(rec)))
            pruned += last_fails_to_embed(derived, E2.outputs)
        # The pruned candidates are those whose last derived state fails to embed.
        assert pruned == result.pruned_abstract > 0

    def test_prune_safety_same_program_with_filter_off(self, table_a2, monkeypatch):
        on = [Synthesizer(task, FIVE_TEMPLATES, table_a2).run(require_correct=True) for task in (E1, E2)]
        monkeypatch.setattr(synthesizer, "state_embeds", lambda state, out: True)
        off = [Synthesizer(task, FIVE_TEMPLATES, table_a2).run(require_correct=True) for task in (E1, E2)]
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
        # Deterministic ranking contract: nothing the run enumerates before
        # the returned program, duplicates included, is abstractly consistent.
        # E1 under the length domain, and two eval tasks under the seed-0 bundle.
        synths = {"e1": Synthesizer(E1, [TOP, LEN_EQ, LEN_NEQ], table_a1)}
        for name in ("eval_backup", "eval_date_slash"):
            _, task = load_task(corpus_dir() / f"{name}.json", 14, 200_000, None)
            synths[name] = Synthesizer(task, trained.templates, trained.table)
        for name, synth in synths.items():
            stream = record_stream(synth)
            result = synth.run(require_correct=False)
            assert len(stream) == result.enumerated, name
            *before, (_, last, _) = stream
            assert synth._node(last) == result.program.root, name
            for _, rec, derived in before:
                _, fresh = derived_and_fresh(synth, rec, derived)
                assert not all(gamma_contains(st, out) for st, out in zip(fresh, synth.outputs)), name


FIVE_TEMPLATES = [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ]


# E2 with a second phone number: no program of up to 14 nodes is correct on
# both, so a run goes on until its budget or its pools run out.
PHONES = SynthesisTask(examples=(*E2.examples, ("408.555.1234", "408-555-1234")))


class TestStateVectorCache:
    """The registry and the concat cache give what a fresh evaluation gives."""

    @pytest.mark.parametrize(
        "domain, limit, reuses",
        [
            ("five", 20_000, False),  # nearly every state pins its value
            ("length", 8_000, True),
            ("top", 20_000, True),
        ],
    )
    def test_cached_states_and_verdicts_equal_fresh_ones(self, table_a1, table_a2, domain, limit, reuses):
        templates, table = {
            "five": (FIVE_TEMPLATES, table_a2),
            "length": ([TOP, LEN_EQ, LEN_NEQ], table_a1),
            "top": ([TOP], TransformerTable()),
        }[domain]
        synth = Synthesizer(SynthesisTask(examples=PHONES.examples, max_candidates=limit), templates, table)
        stream = record_stream(synth)
        result = synth.run(require_correct=True)
        assert result.program is None
        assert len(stream) == result.enumerated
        # Over the budget, the last candidate is counted but not judged.
        judged = stream if result.reason == "exhausted" else stream[:-1]
        seen, pooled, pruned, reused = set(), 0, 0, 0
        for _, rec, derived in judged:
            if rec[0] in seen:  # the run's dedup
                continue
            seen.add(rec[0])
            derived, fresh = derived_and_fresh(synth, rec, derived)
            reused += rec[1] is not None
            accepted = all(gamma_contains(s, out) for s, out in zip(fresh, PHONES.outputs))
            embeds = all(state_embeds(s, out) for s, out in zip(fresh, PHONES.outputs))
            # A pruned candidate's states stop at the first that fails to embed.
            assert derived == fresh if embeds else last_fails_to_embed(derived, PHONES.outputs)
            # Registered when made, else when derived or when pooled.
            sid = rec[1] if rec[1] is not None else synth._ids.get(derived)
            if sid is not None:
                assert embeds
                assert synth._vectors[sid] == fresh
                assert synth._accepts[sid] == accepted
            pooled += embeds
            pruned += not embeds
        assert reused > 0 or not reuses
        assert result.pruned_abstract == pruned
        assert result.deduped == len(judged) - len(seen)
        # Only pooled vectors are registered.
        assert len(synth._ids) == len(synth._vectors) == len(synth._accepts) <= pooled
        # A cached pair names the vector of its children's concatenation.
        for (i, j), k in synth._concats.items():
            pairs = zip(synth._vectors[i], synth._vectors[j])
            assert tuple(apply_transformer(table, ab) for ab in pairs) == synth._vectors[k]

    def test_unsound_entry_still_fails_the_soundness_check(self, table_a1):
        # len(a + b) = len(a): wrong whenever b is not empty.  Under the length
        # domain many wrong states still embed, so the run pools them.
        unsound = Transformer((LEN_EQ, LEN_EQ), ((LEN_EQ, ((1, 0, 0),)),))
        table = TransformerTable([*(t for t in table_a1.all() if t.inputs != unsound.inputs), unsound])
        task = SynthesisTask(examples=E2.examples, max_candidates=5_000)
        synth = Synthesizer(task, [TOP, LEN_EQ, LEN_NEQ], table)
        # A first run fills the registry and the concat cache, so that the
        # second run's checked candidates take the cached path.
        synth.run(require_correct=True)
        cached = dict(synth._concats)
        assert cached
        stream = record_stream(synth)
        synth.run(require_correct=True)
        wrong = [
            rec
            for _, rec, derived in stream
            if not all(gamma_contains(st, v) for st, v in zip(held_states(synth, rec, derived), rec[0]))
        ]
        assert any(len(rec) == 4 and (rec[2][1], rec[3][1]) in cached for rec in wrong)


def size4_leaves(synth):
    """``(node, values)`` of the size-4 leaves, in order: with nothing pooled, size 4 makes no concat."""
    return [(synth._node(rec), rec[0]) for rec in synth._batch(4, {1: [], 2: []})]


# Every input character is a cpos character; short random inputs often lack
# one that another input has, or have fewer than three occurrences of it.
EXAMPLES = st.lists(
    st.tuples(st.text(alphabet="ab./", max_size=8), st.text(alphabet="ab./", max_size=4)),
    min_size=1,
    max_size=3,
)


class TestPositionTable:
    @settings(max_examples=60, deadline=None)
    @given(EXAMPLES)
    @example([("a.b", "b"), ("ab", "a")])  # "." has no occurrence in the second input
    @example([("", "")])
    def test_substr_leaves_equal_evaluated_windows(self, examples):
        task = SynthesisTask(examples=tuple(examples), max_ast_size=4)
        synth = Synthesizer(task, [TOP], TransformerTable())
        want = []
        for p1 in synth.positions:
            for p2 in synth.positions:
                node = substr(input_(), p1, p2)
                try:
                    want.append((node, tuple(eval_node(node, x) for x in task.inputs)))
                except EvalError:
                    continue
        assert size4_leaves(synth) == want


class TestLazyNode:
    """A record's node, rebuilt from its leaves, is the program its size and values describe."""

    @staticmethod
    def check(synth, stream, inputs):
        for size, rec, _ in stream:
            node = synth._node(rec)
            assert node.size == size, print_program(Program(node))
            assert tuple(eval_node(node, x) for x in inputs) == rec[0], print_program(Program(node))
            if len(rec) == 4:
                assert node == concat(synth._node(rec[2]), synth._node(rec[3])), print_program(Program(node))

    def test_first_candidates_under_the_top_table(self, monkeypatch):
        # Nothing is accepted, so the run enumerates up to its budget.
        monkeypatch.setattr(synthesizer, "gamma_contains", lambda state, out: False)
        task = SynthesisTask(examples=E2.examples, max_candidates=20_000)
        synth = Synthesizer(task, [TOP], TransformerTable())
        stream = record_stream(synth)
        result = synth.run(require_correct=True)
        assert result.reason == "candidate-budget"
        assert len(stream) == result.enumerated == 20_001
        assert any(len(rec) == 4 for _, rec, _ in stream)
        self.check(synth, stream, E2.inputs)

    def test_full_run_of_e2(self, table_a2):
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        stream = record_stream(synth)
        result = synth.run(require_correct=True)
        assert len(stream) == result.enumerated
        assert synth._node(stream[-1][1]) == result.program.root
        self.check(synth, stream, E2.inputs)


class TestRecords:
    def test_records_are_untracked_by_the_collector(self, monkeypatch):
        # A record holding a node, a state or any class instance stays
        # tracked, and every full collection then walks the pools.
        monkeypatch.setattr(synthesizer, "gamma_contains", lambda state, out: False)
        task = SynthesisTask(examples=E2.examples, max_candidates=20_000)
        synth = Synthesizer(task, [TOP], TransformerTable())
        stream = record_stream(synth)
        assert synth.run(require_correct=True).reason == "candidate-budget"
        # A collection untracks a tuple only when its items are untracked
        # already, and it may visit a record before its children; but each
        # one untracks every record whose children it found untracked.  So
        # collect until a collection untracks nothing more.
        tracked = [rec for _, rec, _ in stream]
        while tracked:
            gc.collect()
            left = [rec for rec in tracked if gc.is_tracked(rec)]
            if len(left) == len(tracked):
                break
            tracked = left
        assert not tracked, f"{len(tracked)} of {len(stream)} records tracked, first {tracked[0]!r:.200}"

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
    under the learned tables it keeps the concretization of the full leaves."""

    def test_closed_table_reduces_leaves(self, table_a2):
        synth = Synthesizer(E2, FIVE_TEMPLATES, table_a2)
        state = synth._abstract_value("ab")
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
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normalizing_keeps_every_derived_state(self, table_a2, data):
        old = with_top_copies(table_a2)
        removed = data.draw(st.sets(st.sampled_from(table_outputs(old))))
        table = with_outputs(old, lambda t, o: (t.inputs, o) not in removed)
        once = table.normalized()
        assert set(once.entries) <= set(table.entries) and all(t.outputs for t in once.all())
        assert table_outputs(once.normalized()) == table_outputs(once)
        left, right = data.draw(STATES), data.draw(STATES)
        assert apply_transformer(once, (left, right)) == apply_transformer(table, (left, right))
