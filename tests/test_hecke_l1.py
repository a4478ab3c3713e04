"""The one-dimensional l = 1 module family."""

from fractions import Fraction

import pytest

from toroidal_duality.hecke import (
    UnitModule,
    WindowBudget,
    apply_word,
    defining_relation_checks,
    hecke_probes,
    lt,
    make_hecke_items,
    q_presentation_checks,
    wmul,
)
from toroidal_duality.params import specialized_params


@pytest.fixture
def module():
    p = specialized_params(n=3, l=1, q=2, d=2)  # x = 1
    return UnitModule(Fraction(5), Fraction(7), p)


def test_needs_x_equal_one():
    p = specialized_params(n=3, l=1, q=2, d=3)  # x = (2/3)^4
    with pytest.raises(ValueError):
        UnitModule(Fraction(5), Fraction(7), p)


def test_needs_units():
    p = specialized_params(n=3, l=1, q=2, d=2)
    with pytest.raises(ValueError):
        UnitModule(Fraction(0), Fraction(7), p)


def test_trivial_module_words_act_by_one():
    p = specialized_params(n=3, l=1, q=2, d=2)
    m = UnitModule(Fraction(1), Fraction(1), p)
    vec = {(): Fraction(1)}
    w = wmul(lt("X", 1), lt("Y", 1, -1), lt("X", 1, 2), lt("Y", 1, 3))
    assert apply_word(m, w, vec) == vec


def test_xy_twist_acts_by_zero(module):
    vec = {(): Fraction(1)}
    lhs = apply_word(module, wmul(lt("X", 1), lt("Y", 1)), vec)
    rhs = apply_word(module, wmul(lt("Y", 1), lt("X", 1)), vec)
    assert lhs == rhs  # x = 1


def test_word_value(module):
    vec = {(): Fraction(1)}
    out = apply_word(module, wmul(lt("X", 1, 2), lt("Y", 1, -1)), vec)
    assert out == {(): Fraction(25, 7)}


def test_empty_word_keeps_vector_and_budget(module):
    vec = {(): Fraction(3)}
    budget = WindowBudget()
    assert apply_word(module, (), vec, budget) == vec
    assert budget.ok()


def test_q_letter_is_x(module):
    vec = {(): Fraction(1)}
    assert apply_word(module, lt("Q"), vec) == apply_word(module, lt("X", 1), vec)


def test_t_letters_rejected(module):
    with pytest.raises(ValueError):
        apply_word(module, lt("T", 1), {(): Fraction(1)})


def test_relation_suites(module):
    probes = hecke_probes(module, 5, seed=0)
    checks = defining_relation_checks(module) + q_presentation_checks(module)
    assert [c.relation for c in defining_relation_checks(module)] == ["defining.xy-twist"]
    for meta, thunk in make_hecke_items(module, checks, probes):
        zero, valid, note = thunk()
        assert valid and zero, (meta, note)


def test_action_factors_through_commutative_quotient(module):
    # with x = 1, only total X- and Y-degree matter
    vec = {(): Fraction(1)}
    w1 = wmul(lt("X", 1), lt("Y", 1), lt("X", 1, -1), lt("Y", 1))
    w2 = wmul(lt("Y", 1, 2))
    assert apply_word(module, w1, vec) == apply_word(module, w2, vec)
    w3 = wmul(lt("Y", 1, -1), lt("X", 1, 2), lt("Y", 1), lt("X", 1, -1))
    w4 = lt("X", 1)
    assert apply_word(module, w3, vec) == apply_word(module, w4, vec)


def test_descriptor_serializes(module):
    d = module.descriptor()
    assert d["family"] == "l1" and d["a"] == "5" and d["b"] == "7"
