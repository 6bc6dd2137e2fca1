"""Retrieval-augmented CTR prediction: BM25 neighbor retrieval over categorical
records feeding a two-axis attention model (field axis within a sample, sample
axis across retrieved neighbors)."""

from .data import CsvSpec, Dataset, FieldSchema, load_csv
from .errors import DataError, UsageError
from .model import CtrModel, build_input_batch, load_checkpoint, save_checkpoint
from .retrieval import (
    RetrievalIndex,
    RetrievalResult,
    build_index,
    index_from_dataset,
    load_index,
    retrieve,
    retrieve_batch,
    save_index,
)
from .training import EvalReport, TrainConfig, ablate, auc, evaluate, logloss, train

__version__ = "0.1.0"

__all__ = [
    "CsvSpec", "Dataset", "FieldSchema", "load_csv",
    "DataError", "UsageError",
    "CtrModel", "build_input_batch", "load_checkpoint", "save_checkpoint",
    "RetrievalIndex", "RetrievalResult", "build_index",
    "index_from_dataset", "load_index", "retrieve", "retrieve_batch", "save_index",
    "EvalReport", "TrainConfig", "ablate", "auc", "evaluate", "logloss", "train",
    "__version__",
]
