"""qbranch: a numerical laboratory for Q-valued multigraphs.

Builds exactly-known branched holomorphic test graphs and synthetic
homogeneous Q-valued maps, measures smoothed frequency functions and their
variational identities, estimates singularity degrees through normalized
blow-ups, fits excess-decay laws over optimal reference planes, and tracks
the stitched frequency across flattening intervals with BV jump accounting.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DegenerateBlowupError,
                     DimensionError, NumericError, QBranchError, RangeError,
                     RefinementError, SpecError, TiltError, TrackingError)
from .grids import PolarGrid, default_grid
from .qvalue import (QPoint, SheetSelection, average_free, brute_force_metric,
                     eta, metric_g, optimal_matching, track_selection)
from .curves import (CurveSpec, QFunction, average_free_part,
                     constant_profile, eta_map, evaluate_sheets,
                     homogeneous_map, load_qfunction, make_multigraph,
                     save_qfunction, spiral_profile)
from .frequency import (Cutoff, FrequencyProfile, FrequencyRecord, RAMP,
                        SHARP, default_profile_radii, dirichlet_energy,
                        frequency_limit, frequency_profile, recenter)
from .blowup import (BlowupConfig, DegreeEstimate, HardtSimonResult,
                     coarse_blowup_normalize, hardt_simon_check,
                     homogeneity_check, l2_norm_on_ball, rescale,
                     singularity_degree)
from .excess import (ExcessRecord, Plane, HORIZONTAL, excess_decay_fit,
                     excess_table_csv, graph_mass, least_excess,
                     mass_expansion_residual, mean_tilt, optimal_plane,
                     spherical_excess)
from .scaletrack import (IntervalRecord, JumpRecord, ProfileRecord,
                         ScaleIntervals, ScaleTrackConfig, UniversalProfile,
                         bv_budget, bv_negative_variation,
                         intervals_of_flattening, universal_frequency)
