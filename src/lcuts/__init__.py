"""Point-cloud clustering into collinear groups by recursive normalized cuts."""

from .direction import VotingParams, assign_all_directions
from .engine import ClusterResult, Decision, StopCheck, StoppingLimits, check_stopping, lcuts
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InputError,
    LcutsError,
    MissingDataError,
    NodeError,
    OutOfBoundsError,
    SynthesisError,
)
from .geometry import LineFit, Node, PointCloud, fit_line, read_cloud_csv, write_cloud_csv
from .graph import GraphParams, SparseGraph, build_adjacency, intensity_threshold
from .metrics import EvalReport, counting_accuracy, dice, evaluate, grouping_accuracy, match_clusters
from .pipeline import PipelineParams, extract_nodes, find_local_maxima, gaussian_filter, prune_nodes, subtract_background
from .raster import RasterImage, bilinear_sample, read_csv_grid, read_image, read_pgm, write_pgm
from .spectral import Bipartition, ncut_bipartition, smallest_eigenpairs
from .synth import SynthSpec, generate_cloud, generate_image

__version__ = "0.1.0"
