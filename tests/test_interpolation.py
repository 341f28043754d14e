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
from atlas import dsl, interpolation
from atlas.dsl import EvalError, abspos, concat, const, cpos, eval_node, input_, substr
from atlas.interpolation import (
    NotSpurious,
    construct_tree,
    dump_tree,
    find_tree_itp,
    learn_abstract_domain,
)

from oracles import check_interpolant


FIG_PROGRAM = concat(input_(), const("18"))


class TestConstructTree:
    def test_shape_and_labels(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        root, top = nodes[0], nodes[1]
        assert root.value == "CAV2018"
        assert top.value == "CAV18"
        leaves = [n for n in nodes if n.ast is not None and not n.children]
        assert {n.value for n in leaves} == {"CAV", "18"}

    def test_concrete_annotations(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        assert nodes[1].value == "CAV18"

    def test_not_spurious(self):
        with pytest.raises(NotSpurious):
            construct_tree(input_(), "a", "a")

    def test_eval_error_propagates(self):
        p = substr(input_(), abspos(0), cpos(ord("."), 1))
        with pytest.raises(EvalError):
            construct_tree(p, "nodot", "x")

    def test_position_nodes_carry_resolved_values(self):
        p = substr(input_(), abspos(0), cpos(92, -1))
        nodes = construct_tree(p, "\\a\\b", "zzz")
        pos_values = [n.value for n in nodes if n.ast is not None and n.ast.op.value in ("abspos", "cpos")]
        assert pos_values == [0, 3]

    def test_eval_node_calls_grow_linearly_with_depth(self, monkeypatch):
        # Each node's value is computed once, from its children's: building
        # the tree of (concat ... (input) (const "a")) nested d deep calls
        # ``eval_node`` about once per node, not once per node and level
        # (162,002 times at 400 deep when each subtree was evaluated again
        # at each of its nodes).  Counted through the wrapped name, which
        # ``eval_node``'s own recursion also goes through.
        calls, evaluate = [], dsl.eval_node

        def counting(node, x):
            calls.append(node)
            return evaluate(node, x)

        monkeypatch.setattr(dsl, "eval_node", counting)
        monkeypatch.setattr(interpolation, "eval_node", counting)
        counts = {}
        for depth in (50, 100, 200, 400):
            node = input_()
            for _ in range(depth):
                node = concat(node, const("a"))
            calls.clear()
            nodes = construct_tree(node, "x", "y")
            assert nodes[1].value == "x" + "a" * depth
            counts[depth] = len(calls)
        assert all(count <= 2 * depth + 2 for depth, count in counts.items()), counts
        assert counts[400] <= 2 * counts[200] <= 4 * counts[100] <= 8 * counts[50], counts


class TestFindTreeItp:
    def test_length_discriminator_golden(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        assert itp[0] is False
        assert itp[1] == len_neq(7)
        assert check_interpolant(nodes, itp)

    def test_children_get_exact_lengths(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        child_anns = [itp[c] for c in nodes[1].children]
        assert [str(a) for a in child_anns] == ["(len = 3)", "(len = 2)"]

    def test_char_discriminator_on_equal_lengths(self):
        # Output "CAV-018" differs from "CAV2018" first at index 3.
        p = concat(input_(), const("-018"))
        nodes = construct_tree(p, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        assert itp[1] == char_neq(3, ord("2"))
        assert check_interpolant(nodes, itp)

    def test_char_fact_lands_on_covering_child(self):
        p = concat(input_(), const("-018"))
        nodes = construct_tree(p, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        left, right = nodes[1].children
        assert str(itp[left]) == "(len = 3)"
        assert str(itp[right]) == "(char 0 = '-')"

    def test_substr_translates_index_through_start(self):
        # substr(x, 1, 4) yields "bcd"; expected "bQd" differs at local index 1,
        # which is input index 2.
        p = substr(input_(), abspos(1), abspos(4))
        nodes = construct_tree(p, "abcde", "bQd")
        itp = find_tree_itp(nodes)
        assert itp[1] == char_neq(1, ord("Q"))
        input_index = next(i for i, n in enumerate(nodes) if n.ast is not None and n.ast.op.value == "input")
        assert str(itp[input_index]) == "(char 2 = 'c')"
        assert check_interpolant(nodes, itp)

    def test_determinism_prefers_length(self):
        # Both length and content differ; the length fact must win.
        p = const("xy")
        itp = find_tree_itp(construct_tree(p, "in", "abc"))
        assert itp[1] == len_neq(3)

    def test_identical_runs_identical_interpolants(self):
        t1 = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        t2 = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        assert find_tree_itp(t1) == find_tree_itp(t2)


class TestChecker:
    def test_rejects_non_false_root(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        itp[0] = True
        assert not check_interpolant(nodes, itp)

    def test_rejects_non_refuting_top(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        itp[1] = len_neq(99)
        assert not check_interpolant(nodes, itp)

    def test_rejects_unjustified_fact(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        itp = find_tree_itp(nodes)
        # Weaken a child so the parent's fact no longer follows.
        itp[nodes[1].children[0]] = True
        assert not check_interpolant(nodes, itp)


class TestLearnAbstractDomain:
    def test_length_templates_from_suffix_program(self):
        got = learn_abstract_domain(FIG_PROGRAM, [("CAV", "CAV2018")])
        assert got == {LEN_EQ, LEN_NEQ}

    def test_char_templates_on_equal_length_mismatch(self):
        p = input_()
        got = learn_abstract_domain(p, [("510.220.5586", "510-220-5586")])
        assert CHAR_NEQ in got

    def test_correct_program_learns_nothing(self):
        p = concat(input_(), const("2018"))
        assert learn_abstract_domain(p, [("CAV", "CAV2018")]) == set()

    def test_union_over_violated_examples(self):
        p = concat(input_(), const("18"))
        examples = [("CAV", "CAV2018"), ("SAS", "SAS2018")]
        assert learn_abstract_domain(p, examples) == {LEN_EQ, LEN_NEQ}


class TestRefutation:
    def test_extracted_templates_reject_the_program(self):
        # The operational content of refinement progress: abstracting the
        # spurious output under the extracted templates excludes the expected
        # output.
        cases = [
            (FIG_PROGRAM, "CAV", "CAV2018"),
            (concat(input_(), const("-018")), "CAV", "CAV2018"),
            (input_(), "510.220.5586", "510-220-5586"),
        ]
        for p, e_in, e_out in cases:
            templates = learn_abstract_domain(p, [(e_in, e_out)])
            pool = ConstantPool.default([e_in, e_out])
            state = best_abstraction(eval_node(p, e_in), sorted(templates), pool)
            assert not gamma_contains(state, e_out)


class TestDump:
    def test_line_format(self):
        nodes = construct_tree(FIG_PROGRAM, "CAV", "CAV2018")
        lines = dump_tree(nodes, find_tree_itp(nodes)).splitlines()
        assert len(lines) == len(nodes)
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
    try:
        actual = eval_node(node, e_in)
    except EvalError:
        return
    if actual == e_out:
        return
    nodes = construct_tree(node, e_in, e_out)
    itp = find_tree_itp(nodes)
    assert check_interpolant(nodes, itp)
    for i, ann in enumerate(itp):
        if i == 0:
            assert ann is False
        elif ann not in (True, False):
            # Vocabulary: one unary predicate over the node's own value.
            assert ann.kind in tuple(TemplateKind)


def preorder(node):
    """The AST nodes of ``node`` in pre-order."""
    out, stack = [], [node]
    while stack:
        out.append(stack.pop())
        stack.extend(reversed(out[-1].children))
    return out


@settings(max_examples=200, deadline=None)
@given(_programs(), _inputs, st.text(alphabet="ab2x", min_size=0, max_size=8))
def test_tree_is_the_preorder_node_list(node, e_in, e_out):
    try:
        nodes = construct_tree(node, e_in, e_out)
    except (NotSpurious, EvalError):
        return
    # The root comes first, holds the expected output and has the program
    # as its one child; the program's nodes follow in pre-order.
    assert (nodes[0].ast, nodes[0].value, nodes[0].children) == (None, e_out, [1])
    assert [n.ast for n in nodes[1:]] == preorder(node)
    # Every other node is the child of exactly one earlier node, and a
    # node's children are its AST's children, in order.
    parents = {}
    for i, n in enumerate(nodes):
        for c in n.children:
            assert i < c and c not in parents
            parents[c] = i
        if n.ast is not None:
            assert tuple(nodes[c].ast for c in n.children) == n.ast.children
    assert sorted(parents) == list(range(1, len(nodes)))
    assert len(find_tree_itp(nodes)) == len(nodes)
    # Each string node holds its value, as evaluated on its own.
    assert all(n.value == eval_node(n.ast, e_in) for n in nodes[1:] if n.ast.op.value not in ("abspos", "cpos"))
