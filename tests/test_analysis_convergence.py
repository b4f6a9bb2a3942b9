"""Unit tests for KSI convergence diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    ConvergenceTrace,
    iterations_to_tolerance,
    trace_subspace_iteration,
)
from repro.core import PoissonPMF
from repro.datasets import erdos_renyi_bipartite


@pytest.fixture(scope="module")
def graph():
    """A block graph: planted structure gives the top-k a real eigengap."""
    from repro.datasets import BlockModel, stochastic_block_bipartite

    model = BlockModel(
        num_u=80, num_v=60, num_blocks=4, num_edges=900, in_out_ratio=10.0
    )
    return stochastic_block_bipartite(model, seed=2)


class TestConvergenceTrace:
    def test_records_every_iteration(self, graph):
        trace = trace_subspace_iteration(
            graph, PoissonPMF(lam=1.0), 6, 4, max_iterations=15
        )
        assert trace.iterations == 15
        assert trace.ritz_values.shape == (15, 4)

    def test_distances_shrink(self, graph):
        trace = trace_subspace_iteration(
            graph, PoissonPMF(lam=1.0), 6, 4, max_iterations=40
        )
        # Convergent iteration: the tail moves far less than the head.
        assert trace.distances[-1] < 0.05 * max(trace.distances[0], 1e-12)

    def test_ritz_values_stabilize(self, graph):
        trace = trace_subspace_iteration(
            graph, PoissonPMF(lam=1.0), 6, 3, max_iterations=60
        )
        late = trace.ritz_values[-1]
        earlier = trace.ritz_values[-5]
        np.testing.assert_allclose(late, earlier, rtol=1e-3)

    def test_gapless_spectrum_plateaus(self):
        """ER graphs have a near-continuum bulk spectrum: KSI keeps
        rotating inside the eigenvalue cluster and never reaches tight
        tolerances — the behavior motivating the paper's t = 200 budget."""
        er = erdos_renyi_bipartite(60, 40, 400, seed=2)
        needed = iterations_to_tolerance(
            er, PoissonPMF(lam=1.0), 6, 4, tolerance=1e-6,
            max_iterations=100,
        )
        assert needed is None

    def test_iterations_to_tolerance(self, graph):
        needed = iterations_to_tolerance(
            graph, PoissonPMF(lam=1.0), 6, 4, tolerance=1e-3,
            max_iterations=200,
        )
        assert needed is not None
        assert needed < 200  # below the paper's worst-case budget

    def test_budget_exhaustion_returns_none(self, graph):
        needed = iterations_to_tolerance(
            graph, PoissonPMF(lam=1.0), 6, 4, tolerance=0.0,
            max_iterations=5,
        )
        assert needed is None

    def test_iterations_to_helper(self):
        trace = ConvergenceTrace(distances=[1.0, 0.1, 0.001])
        assert trace.iterations_to(0.5) == 2
        assert trace.iterations_to(1e-9) is None

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            trace_subspace_iteration(
                graph, PoissonPMF(lam=1.0), 6, 4, max_iterations=0
            )
