"""Node clustering for heterophilous graphs via a learned asymmetric similarity.

The package trains twin feature maps whose inner products define an
asymmetric similarity graph, optimizes a weighted kernel-SVD objective with
node/edge reconstruction, and clusters nodes from the resulting embeddings.
An exact dual solver (SVD biclustering of the factored similarity, never
forming an n x n matrix) serves as the oracle for the trained model.
"""

from .graphio import AttributedGraph, load_graph, random_walk_pe, symmetrize
from .model import CheckpointError, HenclerParams, ModelDims, \
    SimilarityFactor, init_params, load_checkpoint, map_features, \
    save_checkpoint, similarity_matrix
from .loss import EdgeSample, sample_edges
from .dual import DualSolution, bicluster, dual_projections, \
    eigen_form_check, oracle_report, stationarity_residual
from .evaluate import assign_clusters, nmi, pairwise_f1
from .trainer import AdamState, RunRecord, TrainConfig, TrainingDiverged, \
    optimizer_step, train
from .linalg import kmeans, thin_svd

__version__ = "0.1.0"
