"""PPR-based node embeddings, embedding inversion, and topology-recovery
metrics. The API is imported from the modules, such as pprinv.graph."""

# `import pprinv` must load the whole library: pprbench's setup_s times
# exactly that import.
from . import analytical, embedding, graph, linalg, metrics, optimize, proximity

__version__ = "0.1.0"
