"""Zero-shot action classification toolkit.

Maps feature histograms into a word-embedding space with kernel support
vector regression, classifies unseen categories by nearest-prototype
matching with optional transductive self-training and cross-dataset
augmentation, and provides a conventional SVM path for supervised use.
"""

from .data import Dataset, SplitSpec, generate_splits, load_dataset
from .embedding import (
    EmbeddingStore,
    Label,
    embed_label,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    tokenize,
)
from .evaluate import (
    EvaluationReport,
    ExperimentConfig,
    run_multishot_evaluation,
    run_zsl_evaluation,
)
from .kernels import gram_matrix, heuristic_gamma
from .smo import ConvergenceError
from .svc import SvcModel, classify_batch, decision_values, train_svc
from .svr import SemanticRegressor, predict_batch, train_semantic_regressor, train_svr
from .zsl import (
    Prediction,
    augment_training,
    nearest_prototype,
    label_targets,
    self_train,
    zsl_predict,
)

__version__ = "0.1.0"
