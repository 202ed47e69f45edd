"""Transportation/min-cost-flow solver tests: hand cases, feasibility,
cross-solver agreement (including hypothesis-driven random instances)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleFlowError, ValidationError
from repro.flow import (
    MinCostFlowProblem,
    TransportationProblem,
    solve_mcf_cost_scaling,
    solve_mcf_ssp,
    solve_transportation,
    solve_transportation_lp,
    solve_transportation_network_simplex,
    solve_transportation_ssp,
)


def simple_problem() -> TransportationProblem:
    return TransportationProblem(
        supplies=np.array([3.0, 2.0]),
        demands=np.array([2.0, 3.0]),
        costs=np.array([[1.0, 4.0], [5.0, 2.0]]),
    )


class TestProblemModel:
    def test_balance_detection(self):
        assert simple_problem().is_balanced
        p = TransportationProblem(np.array([3.0]), np.array([1.0]), np.array([[1.0]]))
        assert not p.is_balanced
        assert p.moved_mass == 1.0

    def test_balanced_form_adds_dummy_consumer(self):
        p = TransportationProblem(np.array([5.0]), np.array([2.0]), np.array([[3.0]]))
        balanced, dummy_c, dummy_s = p.balanced_form()
        assert dummy_c and not dummy_s
        assert balanced.is_balanced
        assert balanced.costs[0, 1] == 0.0

    def test_balanced_form_adds_dummy_supplier(self):
        p = TransportationProblem(np.array([1.0]), np.array([4.0]), np.array([[3.0]]))
        balanced, dummy_c, dummy_s = p.balanced_form()
        assert dummy_s and not dummy_c

    def test_negative_supply_rejected(self):
        with pytest.raises(ValidationError):
            TransportationProblem(np.array([-1.0]), np.array([1.0]), np.array([[1.0]]))

    def test_cost_shape_checked(self):
        with pytest.raises(ValidationError):
            TransportationProblem(np.array([1.0]), np.array([1.0]), np.eye(2))


@pytest.mark.parametrize("method", ["ssp", "network-simplex", "lp"])
class TestTransportationSolvers:
    def test_known_optimum(self, method):
        # Optimal: 2 units 0->0 (cost 2), 1 unit 0->1 (4), 2 units 1->1 (4).
        plan = solve_transportation(simple_problem(), method=method)
        assert plan.cost == pytest.approx(10.0)
        plan.validate(simple_problem())

    def test_identity_costs_zero(self, method):
        p = TransportationProblem(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([[0.0, 9.0], [9.0, 0.0]])
        )
        plan = solve_transportation(p, method=method)
        assert plan.cost == pytest.approx(0.0)

    def test_unbalanced_moves_min_mass(self, method):
        p = TransportationProblem(
            np.array([5.0, 5.0]), np.array([3.0]), np.array([[2.0], [1.0]])
        )
        plan = solve_transportation(p, method=method)
        assert plan.moved_mass == pytest.approx(3.0)
        assert plan.cost == pytest.approx(3.0)  # all from the cheap supplier

    def test_single_cell(self, method):
        p = TransportationProblem(np.array([4.0]), np.array([4.0]), np.array([[2.5]]))
        plan = solve_transportation(p, method=method)
        assert plan.cost == pytest.approx(10.0)

    def test_zero_mass(self, method):
        p = TransportationProblem(np.zeros(2), np.zeros(3), np.ones((2, 3)))
        plan = solve_transportation(p, method=method)
        assert plan.cost == 0.0


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        supplies = rng.integers(0, 10, n).astype(float)
        demands = rng.integers(0, 10, m).astype(float)
        costs = rng.integers(0, 15, (n, m)).astype(float)
        p = TransportationProblem(supplies, demands, costs)
        ssp = solve_transportation_ssp(p)
        ns = solve_transportation_network_simplex(p)
        lp = solve_transportation_lp(p)
        assert ssp.cost == pytest.approx(lp.cost, abs=1e-6)
        assert ns.cost == pytest.approx(lp.cost, abs=1e-6)
        ssp.validate(p)
        ns.validate(p)
        lp.validate(p)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=5),
    )
    def test_hypothesis_instances(self, data, n, m):
        supplies = np.array(
            data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=float
        )
        demands = np.array(
            data.draw(st.lists(st.integers(0, 12), min_size=m, max_size=m)), dtype=float
        )
        costs = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 9), min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=float,
        )
        p = TransportationProblem(supplies, demands, costs)
        ssp = solve_transportation_ssp(p)
        lp = solve_transportation_lp(p)
        assert ssp.cost == pytest.approx(lp.cost, abs=1e-6)
        ssp.validate(p)


class TestMinCostFlow:
    def build_path_problem(self):
        # 0 -> 1 -> 2, send 2 units from 0 to 2.
        mcf = MinCostFlowProblem(3)
        mcf.add_edge(0, 1, 5, 2)
        mcf.add_edge(1, 2, 5, 3)
        mcf.set_supply(0, 2)
        mcf.set_supply(2, -2)
        return mcf

    def test_ssp_path(self):
        sol = solve_mcf_ssp(self.build_path_problem())
        assert sol.cost == pytest.approx(10.0)
        assert sol.flows.tolist() == [2.0, 2.0]

    def test_cost_scaling_path(self):
        sol = solve_mcf_cost_scaling(self.build_path_problem())
        assert sol.cost == pytest.approx(10.0)

    def test_parallel_routes_pick_cheap(self):
        mcf = MinCostFlowProblem(4)
        mcf.add_edge(0, 1, 10, 1)
        mcf.add_edge(1, 3, 10, 1)
        mcf.add_edge(0, 2, 10, 5)
        mcf.add_edge(2, 3, 10, 5)
        mcf.set_supply(0, 3)
        mcf.set_supply(3, -3)
        sol = solve_mcf_ssp(mcf)
        assert sol.cost == pytest.approx(6.0)

    def test_no_kernel_knob(self):
        """One Dijkstra backend (scipy): the old ``kernel=`` knob is gone."""
        with pytest.raises(TypeError):
            solve_mcf_ssp(MinCostFlowProblem(2), kernel="heap")

    def test_capacity_forces_split(self):
        # The cheap route is capped at 2 units, forcing 2 more onto the
        # expensive one: cost = 2 * (1 + 1) + 2 * (5 + 5).
        ssp = solve_mcf_ssp(self._rebuild_capacity_problem())
        scaling = solve_mcf_cost_scaling(self._rebuild_capacity_problem())
        assert ssp.cost == pytest.approx(2 * 2 + 2 * 10)
        assert scaling.cost == pytest.approx(ssp.cost)

    @staticmethod
    def _rebuild_capacity_problem():
        mcf = MinCostFlowProblem(4)
        mcf.add_edge(0, 1, 2, 1)
        mcf.add_edge(1, 3, 2, 1)
        mcf.add_edge(0, 2, 10, 5)
        mcf.add_edge(2, 3, 10, 5)
        mcf.set_supply(0, 4)
        mcf.set_supply(3, -4)
        return mcf

    def test_infeasible_disconnected(self):
        mcf = MinCostFlowProblem(2)
        mcf.set_supply(0, 1)
        mcf.set_supply(1, -1)
        with pytest.raises(InfeasibleFlowError):
            solve_mcf_ssp(mcf)

    def test_unbalanced_rejected(self):
        mcf = MinCostFlowProblem(2)
        mcf.add_edge(0, 1, 1, 1)
        mcf.set_supply(0, 2)
        mcf.set_supply(1, -1)
        with pytest.raises(Exception):
            solve_mcf_ssp(mcf)

    def test_cost_scaling_requires_integers(self):
        mcf = MinCostFlowProblem(2)
        mcf.add_edge(0, 1, 1.0, 1.5)
        mcf.set_supply(0, 1)
        mcf.set_supply(1, -1)
        with pytest.raises(ValidationError):
            solve_mcf_cost_scaling(mcf)

    @pytest.mark.parametrize("seed", range(5))
    def test_ssp_vs_cost_scaling_random(self, seed):
        rng = np.random.default_rng(seed + 100)
        n = 8
        mcf_a = MinCostFlowProblem(n)
        mcf_b = MinCostFlowProblem(n)
        # Random bipartite-ish instance with guaranteed feasibility via a
        # high-cost backbone.
        supply = rng.integers(1, 5, 3)
        for i, s in enumerate(supply):
            mcf_a.set_supply(i, float(s))
            mcf_b.set_supply(i, float(s))
        total = float(supply.sum())
        mcf_a.set_supply(n - 1, -total)
        mcf_b.set_supply(n - 1, -total)
        for i in range(3):
            mcf_a.add_edge(i, n - 1, total, 50)
            mcf_b.add_edge(i, n - 1, total, 50)
        for _ in range(12):
            u, v = rng.integers(0, n, 2)
            if u == v:
                continue
            cap = float(rng.integers(1, 8))
            cost = float(rng.integers(0, 20))
            mcf_a.add_edge(int(u), int(v), cap, cost)
            mcf_b.add_edge(int(u), int(v), cap, cost)
        a = solve_mcf_ssp(mcf_a)
        b = solve_mcf_cost_scaling(mcf_b)
        assert a.cost == pytest.approx(b.cost, abs=1e-6)
