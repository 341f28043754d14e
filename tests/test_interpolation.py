import pytest
from hypothesis import given, settings, strategies as st

from atlas.domain import (
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TemplateKind,
    best_abstraction,
    char_neq,
    gamma_contains,
    len_neq,
)
from atlas.dsl import EvalError, Program, abspos, concat, const, cpos, evaluate, input_, substr
from atlas.interpolation import (
    NotSpurious,
    construct_tree,
    dump_tree,
    find_tree_itp,
    learn_abstract_domain,
)

from oracles import check_interpolant


FIG_PROGRAM = Program(concat(input_(), const("18")))


class TestConstructTree:
    def test_shape_and_labels(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        root = tree.nodes[tree.root]
        assert root.value == "CAV2018"
        top = tree.child_of_root()
        assert top.value == "CAV18"
        leaves = [n for n in tree.nodes if n.ast is not None and not n.children]
        assert {n.value for n in leaves} == {"CAV", "18"}

    def test_concrete_annotations(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        assert tree.child_of_root().value == "CAV18"

    def test_not_spurious(self):
        with pytest.raises(NotSpurious):
            construct_tree(Program(input_()), "a", "a")

    def test_eval_error_propagates(self):
        p = Program(substr(input_(), abspos(0), cpos(ord("."), 1)))
        with pytest.raises(EvalError):
            construct_tree(p, "nodot", "x")

    def test_position_nodes_carry_resolved_values(self):
        p = Program(substr(input_(), abspos(0), cpos(92, -1)))
        tree = construct_tree(p, "\\a\\b", "zzz")
        pos_values = [n.value for n in tree.nodes if n.ast is not None and n.ast.op.value in ("abspos", "cpos")]
        assert pos_values == [0, 3]


class TestFindTreeItp:
    def test_length_discriminator_golden(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        assert itp.at(tree.root) is False
        assert itp.at(tree.child_of_root().uid) == len_neq(7)
        assert check_interpolant(tree, itp)

    def test_children_get_exact_lengths(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        top = tree.child_of_root()
        child_anns = [itp.at(c) for c in top.children]
        assert [str(a) for a in child_anns] == ["(len = 3)", "(len = 2)"]

    def test_char_discriminator_on_equal_lengths(self):
        # Output "CAV-018" differs from "CAV2018" first at index 3.
        p = Program(concat(input_(), const("-018")))
        tree = construct_tree(p, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        assert itp.at(tree.child_of_root().uid) == char_neq(3, ord("2"))
        assert check_interpolant(tree, itp)

    def test_char_fact_lands_on_covering_child(self):
        p = Program(concat(input_(), const("-018")))
        tree = construct_tree(p, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        top = tree.child_of_root()
        left, right = (tree.node(c) for c in top.children)
        assert str(itp.at(left.uid)) == "(len = 3)"
        assert str(itp.at(right.uid)) == "(char 0 = '-')"

    def test_substr_translates_index_through_start(self):
        # substr(x, 1, 4) yields "bcd"; expected "bQd" differs at local index 1,
        # which is input index 2.
        p = Program(substr(input_(), abspos(1), abspos(4)))
        tree = construct_tree(p, "abcde", "bQd")
        itp = find_tree_itp(tree)
        assert itp.at(tree.child_of_root().uid) == char_neq(1, ord("Q"))
        input_node = next(n for n in tree.nodes if n.ast is not None and n.ast.op.value == "input")
        assert str(itp.at(input_node.uid)) == "(char 2 = 'c')"
        assert check_interpolant(tree, itp)

    def test_determinism_prefers_length(self):
        # Both length and content differ; the length fact must win.
        p = Program(const("xy"))
        tree = construct_tree(p, "in", "abc")
        itp = find_tree_itp(tree)
        assert itp.at(tree.child_of_root().uid) == len_neq(3)

    def test_identical_runs_identical_interpolants(self):
        t1 = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        t2 = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        assert find_tree_itp(t1).annotations == find_tree_itp(t2).annotations


class TestChecker:
    def test_rejects_non_false_root(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        itp.annotations[tree.root] = True
        assert not check_interpolant(tree, itp)

    def test_rejects_non_refuting_top(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        itp.annotations[tree.child_of_root().uid] = len_neq(99)
        assert not check_interpolant(tree, itp)

    def test_rejects_unjustified_fact(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        top = tree.child_of_root()
        # Weaken a child so the parent's fact no longer follows.
        itp.annotations[top.children[0]] = True
        assert not check_interpolant(tree, itp)


class TestLearnAbstractDomain:
    def test_length_templates_from_suffix_program(self):
        got = learn_abstract_domain(FIG_PROGRAM, [("CAV", "CAV2018")])
        assert got == {LEN_EQ, LEN_NEQ}

    def test_char_templates_on_equal_length_mismatch(self):
        p = Program(input_())
        got = learn_abstract_domain(p, [("510.220.5586", "510-220-5586")])
        assert CHAR_NEQ in got

    def test_correct_program_learns_nothing(self):
        p = Program(concat(input_(), const("2018")))
        assert learn_abstract_domain(p, [("CAV", "CAV2018")]) == set()

    def test_union_over_violated_examples(self):
        p = Program(concat(input_(), const("18")))
        examples = [("CAV", "CAV2018"), ("SAS", "SAS2018")]
        assert learn_abstract_domain(p, examples) == {LEN_EQ, LEN_NEQ}


class TestRefutation:
    def test_extracted_templates_reject_the_program(self):
        # The operational content of refinement progress: abstracting the
        # spurious output under the extracted templates excludes the expected
        # output.
        cases = [
            (FIG_PROGRAM, "CAV", "CAV2018"),
            (Program(concat(input_(), const("-018"))), "CAV", "CAV2018"),
            (Program(input_()), "510.220.5586", "510-220-5586"),
        ]
        for p, e_in, e_out in cases:
            templates = learn_abstract_domain(p, [(e_in, e_out)])
            pool = ConstantPool.default([e_in, e_out])
            state = best_abstraction(evaluate(p, e_in), sorted(templates), pool)
            assert not gamma_contains(state, e_out)


class TestDump:
    def test_line_format(self):
        tree = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(tree)
        lines = dump_tree(tree, itp).splitlines()
        assert len(lines) == len(tree.nodes)
        for line in lines:
            assert len(line.split(" | ")) == 4


# Random spurious programs must always yield checkable interpolants.
_inputs = st.text(alphabet="ab\\.", min_size=0, max_size=6)


def _programs():
    leaves = st.one_of(
        st.just(input_()),
        st.text(alphabet="ab2", min_size=0, max_size=3).map(const),
        st.builds(
            substr,
            st.just(input_()),
            st.integers(0, 3).map(abspos),
            st.one_of(st.integers(0, 4).map(abspos), st.just(abspos(-1))),
        ),
    )
    return st.recursive(leaves, lambda kids: st.builds(concat, kids, kids), max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(_programs(), _inputs, st.text(alphabet="ab2x", min_size=0, max_size=8))
def test_interpolants_always_check(node, e_in, e_out):
    p = Program(node)
    try:
        actual = evaluate(p, e_in)
    except EvalError:
        return
    if actual == e_out:
        return
    tree = construct_tree(p, e_in, e_out)
    itp = find_tree_itp(tree)
    assert check_interpolant(tree, itp)
    for n in tree.nodes:
        ann = itp.at(n.uid)
        if n.uid == tree.root:
            assert ann is False
        elif ann not in (True, False):
            # Vocabulary: one unary predicate over the node's own value.
            assert ann.kind in tuple(TemplateKind)
