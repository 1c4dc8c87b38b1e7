"""The recursive term walkers leave no reference cycle behind.

A nested function that calls itself holds itself through its closure cell,
so unless the cell is emptied each call leaves a function/cell cycle that
only the cyclic collector frees. Each walker runs here with the collector
off and `DEBUG_SAVEALL` on; a collection afterwards must find nothing.
"""

import gc

import pytest

from synthsel import enumerator, verify
from synthsel.sygus import App, parse_define_fun, parse_query, parse_term_text
from synthsel.sygus.grammar import Hole, fill_holes
from synthsel.sygus.terms import apply_candidate

from conftest import MAX2_SOLUTION, MAX2_TEXT

QUERY = parse_query(MAX2_TEXT)
CANDIDATE = parse_define_fun(MAX2_SOLUTION)
ENV = dict(QUERY.universals)
TEMPLATE = parse_term_text("(ite (<= v0 v1) (+ v1 1) v0)", ENV)
CONSTRAINT = QUERY.constraints[-1]


def _left_in_cycles(call):
    """The objects that only the cyclic collector would free after `call()`."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        return list(gc.garbage), result
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("call", [
    lambda: verify._expression(TEMPLATE, ["v0", "v1"], ENV),
    lambda: apply_candidate(CONSTRAINT, CANDIDATE),
    lambda: fill_holes(App("+", (Hole("I"), Hole("I"))), [TEMPLATE, TEMPLATE]),
    lambda: enumerator._invocations(QUERY),
], ids=["verify._expression", "apply_candidate", "fill_holes", "enumerator._invocations"])
def test_a_walk_leaves_no_cyclic_garbage(call):
    garbage, result = _left_in_cycles(call)
    assert result is not None
    assert garbage == []
