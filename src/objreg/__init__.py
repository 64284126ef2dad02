"""Object-grounded RGB-D registration.

Joint Gauss-Newton optimization of 6-DoF camera poses and 9-DoF global
object poses from canonical object correspondences and keypoint matches,
with Kabsch outlier filtering, Hungarian object identification, ICP
refinement, and robust pose graph sequence registration.
"""

from .geometry import (
    Intrinsics,
    ObjectPose,
    RigidPose,
    apply_rigid,
    compose,
    invert,
)
from .joint_solver import (
    RegistrationProblem,
    SolveReport,
    SolverConfig,
    build_problem,
    gauss_newton_solve,
    register_pair,
)
from .matching import MatchConfig, hungarian, match_pair
from .metrics import RecallThreshold, Trajectory, ate_rmse, pose_error, pose_recall, read_tum, write_tum
from .observations import FrameSet, KeypointMatch, ObjectObservation, load_problem, save_problem
from .posegraph import GraphConfig, GraphEdge, PoseGraph, build_graph, optimize_graph, register_sequence
from .procrustes import AlignmentResult, FilterConfig, icp_refine, kabsch_filter
from .synth import SynthConfig, generate, make_pair_suite, overlap

__version__ = "0.1.0"
