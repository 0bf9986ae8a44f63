from sfvs_kernel import Instance, Multigraph, PairInstance, serialize_instance
from sfvs_kernel.skernel import canonical_no, canonical_yes

from perfbench.checks import check_output, matroid_bound
from perfbench.workloads import leaf_fan


def _text(inst) -> str:
    if isinstance(inst, Instance):
        inst = inst.with_pairs()
    return serialize_instance(inst)


def test_flipped_answer_is_flagged_against_the_solver():
    yes = leaf_fan(4, 2)
    problems = check_output("full", None, _text(yes), _text(canonical_no()))
    assert problems == ["answer flipped from True to False"]


def test_flipped_answer_is_flagged_against_a_known_answer():
    problems = check_output("full", True, _text(leaf_fan(4, 2)),
                            _text(canonical_no()))
    assert problems == ["answer flipped from True to False"]


def test_equivalent_kernel_passes():
    assert check_output("full", None, _text(leaf_fan(4, 2)),
                        _text(canonical_yes(2))) == []
    assert check_output("full", None, _text(leaf_fan(4, 1)),
                        _text(canonical_no())) == []


def test_matroid_output_over_the_size_bound_is_flagged():
    # one S-edge at k=1: |T| = 2, bound C(2,2)*1 + 2 = 3 vertices
    g = Multigraph.from_edges(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
    inp = PairInstance(g, frozenset([1]), frozenset(), 1)
    assert matroid_bound(inp) == 3
    problems = check_output("matroid", None, _text(inp), _text(inp))
    assert problems == ["matroid output has 4 vertices, bound 3"]
    assert check_output("full", None, _text(inp), _text(inp)) == []
