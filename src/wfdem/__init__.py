"""Dynamic equivalent models of wind farms by oscillation-mode clustering."""

from .aggregation import (DemModel, aggregate_wts, build_dem, equivalent_network,
                          member_indices)
from .assembly import FarmStateSpace, assemble_farm
from .clustering import (FeatureTable, GroupAssignment, ModeClusters,
                         cluster_modes, group_wts, superimpose_mpf,
                         sweep_cluster_counts)
from .farm import (Branch, FarmDescription, GridThevenin, NetworkMatrices,
                   PerUnitBases, WtParams, build_network_matrices, load_farm,
                   save_farm)
from .modal import (ConcernSet, FarmModel, ModalSolution, eig_biorthogonal,
                    select_concern_modes, solve_modes)
from .powerflow import BusSolution, solve_powerflow
from .validation import (LinearResponse, ValidationReport, compare_responses,
                         error_E, error_Eprime, nrmse, simulate_linear)
from .wt import SagSpec, WtStateSpace, linearize_wt

__version__ = "0.1.0"
