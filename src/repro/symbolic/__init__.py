"""Symbolic model-based location inference (paper Section 3.3).

The baseline the paper compares against (Yang et al. [29, 30]): an
object's position is assumed *uniformly distributed over all reachable
locations* constrained by its maximum speed, where reachability is
expressed on a *deployment graph* whose vertices are cells — maximal
regions of the indoor space traversable without being detected by any
positioning device.

The model answers queries through the one query engine: it is the
``"symbolic"`` filter backend (:mod:`repro.filters.symbolic`), so the
baseline system is ``IndoorQueryEngine(..., filter_backend="symbolic")``.
"""

from repro.symbolic.cells import Cell, DeploymentGraph, build_deployment_graph
from repro.symbolic.devices import DeviceType
from repro.symbolic.inference import SymbolicLocationModel

__all__ = [
    "Cell",
    "DeploymentGraph",
    "build_deployment_graph",
    "DeviceType",
    "SymbolicLocationModel",
]
