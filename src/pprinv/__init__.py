"""PPR-based node embeddings, embedding inversion, and topology-recovery
metrics."""

from .analytical import (
    AnalyticalInputs,
    binarize,
    estimate_m_infinity,
    invert_analytical,
    recover_adjacency,
    recover_laplacian,
)
from .embedding import EmbeddingPair, factorize, load_embedding, reconstruct_proximity, save_embedding
from .graph import (
    CommunityAssignment,
    EdgeListError,
    Graph,
    all_pairs_distances,
    conductance,
    parse_edge_list,
    parse_labels,
    serialize_edge_list,
)
from .linalg import load_matrix, pseudoinverse, randomized_svd, save_matrix
from .metrics import (
    RecoveryReport,
    recovery_report,
    relative_frobenius_error,
)
from .optimize import (
    OptConfig,
    OptimizeResult,
    OptState,
    forward_proximity,
    gradient,
    invert_optimize,
    loss,
    volume_shift,
)
from .proximity import (
    Preset,
    ProximityConfig,
    build_proximity,
    deepwalk_log_proximity,
    hop_coefficients,
    preset_config,
    truncated_ppr,
)

__version__ = "0.1.0"
