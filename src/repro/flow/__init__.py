"""Min-cost flow and transportation solvers.

The EMD family reduces to transportation problems; the fast SND pipeline
reduces to a sparse min-cost-flow instance. Four interchangeable exact
solvers are provided:

* :func:`solve_transportation_network_simplex` — sparse network simplex
  with a warm-startable spanning-tree basis (block pivoting, strongly
  feasible anti-cycling); the exact tier ``method="auto"`` runs, and the
  one that exploits temporal locality across nearly identical instances
  (sliding windows, corpus appends);
* :func:`solve_mcf_ssp` — successive shortest paths with potentials
  (default; exact for real-valued supplies/costs; each augmentation is one
  scipy Dijkstra over a reweighted CSR residual graph);
* :func:`solve_mcf_cost_scaling` — Goldberg–Tarjan cost-scaling
  push-relabel (integer costs; the paper's CS2 role);
* :func:`solve_transportation_lp` — :func:`scipy.optimize.linprog` reference
  (the paper's CPLEX role in Fig. 11).

All exact solvers agree to numerical tolerance; cross-solver agreement is
property-tested in ``tests/flow/test_solver_equivalence.py``. One
*approximation tier* sits alongside them:
:func:`solve_transportation_sinkhorn_hybrid` (``"sinkhorn-hybrid"``) — a
Sinkhorn screen identifies a sparse support, then an exact solver runs on
that support; its relative error is certified per solve and
property-tested under tolerance tiers. ``method="auto"``
(:func:`select_transport_method`) runs network simplex up to
:data:`AUTO_HYBRID_CELLS` cells and the hybrid above, where exact dense
solves stop being viable; the measurements behind the policy are in
``benchmarks/README.md`` and ``docs/solvers.md``.
"""

from repro.exceptions import ValidationError
from repro.flow.basis import TransportBasis
from repro.flow.cost_scaling import solve_mcf_cost_scaling
from repro.flow.lp_reference import solve_transportation_lp
from repro.flow.network_simplex import solve_transportation_network_simplex
from repro.flow.problem import MinCostFlowProblem, TransportationProblem
from repro.flow.sinkhorn import solve_transportation_sinkhorn
from repro.flow.sinkhorn_hybrid import solve_transportation_sinkhorn_hybrid
from repro.flow.ssp import solve_mcf_ssp, solve_transportation_ssp

__all__ = [
    "TransportationProblem",
    "MinCostFlowProblem",
    "TransportBasis",
    "select_transport_method",
    "solve_mcf_ssp",
    "solve_transportation_ssp",
    "solve_mcf_cost_scaling",
    "solve_transportation_network_simplex",
    "solve_transportation_lp",
    "solve_transportation_sinkhorn",
    "solve_transportation_sinkhorn_hybrid",
    "solve_transportation",
]

#: Above this cell count ``method="auto"`` switches from exact network
#: simplex to the ``"sinkhorn-hybrid"`` approximation tier: the screened
#: sparse exact solve beats the best exact dense solver by >= 5x at <= 1%
#: certified relative error from roughly this size upward (measured on
#: powerlaw-graph reduced instances — see benchmarks/README.md and
#: BENCH_sinkhorn_hybrid.json). Overridable per call via the
#: ``hybrid_cells`` parameter of :func:`select_transport_method`
#: (``None`` disables the branch and keeps ``auto`` fully exact).
AUTO_HYBRID_CELLS = 160_000

_TRANSPORT_SOLVERS = {
    "ssp": solve_transportation_ssp,
    "network-simplex": solve_transportation_network_simplex,
    "lp": solve_transportation_lp,
    "sinkhorn-hybrid": solve_transportation_sinkhorn_hybrid,
}


def select_transport_method(
    n_suppliers: int,
    n_consumers: int,
    *,
    hybrid_cells: int | None = AUTO_HYBRID_CELLS,
) -> str:
    """The ``method="auto"`` policy for dense transportation instances.

    Returns ``"network-simplex"`` up to *hybrid_cells* dense cells and
    ``"sinkhorn-hybrid"`` beyond. Network simplex won or tied every exact
    tier on the reduced instances the benchmark workloads solve
    (``benchmarks/README.md``). The hybrid tier is approximate
    (certified relative error, see :mod:`repro.flow.sinkhorn_hybrid`) and
    is the only branch that trades accuracy for scale. Pass
    ``hybrid_cells=None`` to keep the selection fully exact, or another
    cell count to move the approximation threshold.
    """
    cells = max(0, int(n_suppliers)) * max(0, int(n_consumers))
    if hybrid_cells is not None and cells > int(hybrid_cells):
        return "sinkhorn-hybrid"
    return "network-simplex"


def solve_transportation(problem: TransportationProblem, *, method: str = "ssp"):
    """Solve a (possibly unbalanced) transportation problem.

    ``method`` is one of ``"ssp"`` (default),
    ``"network-simplex"`` (warm-startable sparse simplex — pass bases via
    :func:`solve_transportation_network_simplex` directly), ``"lp"``,
    ``"sinkhorn-hybrid"`` (approximate: Sinkhorn-screened sparse exact
    solve with a certified error bound), or ``"auto"`` (size-based
    selection, :func:`select_transport_method` — exact below
    :data:`AUTO_HYBRID_CELLS` cells, hybrid above).
    Returns a :class:`~repro.flow.plan.TransportPlan`.
    """
    if method == "auto":
        method = select_transport_method(problem.n_suppliers, problem.n_consumers)
    try:
        solver = _TRANSPORT_SOLVERS[method]
    except KeyError:
        raise ValidationError(
            f"unknown method {method!r}; expected 'auto' or one of "
            f"{sorted(_TRANSPORT_SOLVERS)}"
        ) from None
    return solver(problem)
