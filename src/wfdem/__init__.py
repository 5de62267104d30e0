"""Dynamic equivalent models of wind farms by oscillation-mode clustering."""

from .aggregation import DemModel, aggregate_wts, build_dem, equivalent_network
from .assembly import FarmStateSpace, assemble_farm
from .clustering import (FeatureTable, GroupAssignment, ModeClusters,
                         cluster_modes, group_wts, superimpose_mpf)
from .farm import (Branch, FarmDescription, GridThevenin, NetworkMatrices,
                   PerUnitBases, WtParams, build_network_matrices, load_farm,
                   save_farm)
from .modal import (ConcernSet, ModalSolution, eig_biorthogonal,
                    select_concern_modes)
from .powerflow import (BusSolution, WtOperatingPoint, solve_powerflow,
                        wt_operating_point)
from .validation import (LinearResponse, ValidationReport, compare_responses,
                         error_E, error_Eprime, linearization_check, nrmse,
                         simulate_linear)
from .wt import (SagSpec, WtStateSpace, WtTrajectory, linearize_wt,
                 simulate_wt_nonlinear, stiff_grid_mode)

__version__ = "0.1.0"
