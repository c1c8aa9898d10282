import pytest

from fairsplit.compose import compose, power_of_two_levels
from fairsplit.conditions import check_conditions
from fairsplit.errors import Budget, ResourceBudget
from fairsplit.graphs import Graph, single_block_partition
from fairsplit.kneser import KneserInstance, build_hypergraph, chromatic_number


def test_budget_spends_exactly_its_limit():
    budget = Budget(5, "five units")
    for _ in range(5):
        budget.spend()
    assert budget.left == 0
    budget.spend(0)
    with pytest.raises(ResourceBudget, match="^five units$"):
        budget.spend()


def test_budget_refuses_a_spend_past_what_is_left():
    budget = Budget(10, "ten units")
    budget.spend(4)
    budget.spend(6)
    budget = Budget(10, "ten units")
    budget.spend(4)
    with pytest.raises(ResourceBudget, match="^ten units$"):
        budget.spend(7)
    with pytest.raises(ResourceBudget):
        Budget(0, "none").spend()


def test_exact_budgets_hold_on_every_call():
    # each call starts a count of its own: the second call with the exact
    # budget succeeds as the first did
    h = build_hypergraph(KneserInstance(9, 3, 2))
    assert [chromatic_number(h, budget=3047)[0] for _ in range(2)] == [5, 5]
    part = single_block_partition(255)
    levels = power_of_two_levels(4, part)
    first, second = (compose(255, part, levels, budget=1035)[0]
                     for _ in range(2))
    assert first == second and len(first.sets) == 16
    k5 = Graph(7, [(u, w) for u in range(1, 6) for w in range(u + 1, 6)])
    reports = [check_conditions(k5, single_block_partition(7), 2, budget=654)
               for _ in range(2)]
    assert reports[0].to_json() == reports[1].to_json()
    assert not reports[0].any_certified
