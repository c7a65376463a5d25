"""Core model: tasks, workers, motivation, the HTA problem, and its solvers."""

from .adaptive import (
    AdaptiveTrace,
    GainObservation,
    IterationRecord,
    MotivationEstimator,
    observe_gains,
    run_adaptive_loop,
)
from .assignment import Assignment
from .distance import (
    DistanceSpec,
    angular_distance,
    check_metric_on_sample,
    euclidean_distance,
    get_distance,
    hamming_distance,
    jaccard_distance,
    pairwise_jaccard,
    pairwise_matrix,
    register_distance,
    registered_distances,
)
from .instance import HTAInstance
from .keywords import Vocabulary
from .motivation import motivation, relevance, task_diversity, task_relevance
from .qap import QAPEncoding, build_encoding
from .task import Task, TaskGroup, TaskPool, pool_from_vectors
from .worker import MotivationWeights, Worker, WorkerPool

__all__ = [
    "AdaptiveTrace",
    "Assignment",
    "DistanceSpec",
    "GainObservation",
    "HTAInstance",
    "IterationRecord",
    "MotivationEstimator",
    "MotivationWeights",
    "QAPEncoding",
    "Task",
    "TaskGroup",
    "TaskPool",
    "Vocabulary",
    "Worker",
    "WorkerPool",
    "angular_distance",
    "build_encoding",
    "check_metric_on_sample",
    "euclidean_distance",
    "get_distance",
    "hamming_distance",
    "jaccard_distance",
    "motivation",
    "observe_gains",
    "pairwise_jaccard",
    "pairwise_matrix",
    "pool_from_vectors",
    "register_distance",
    "registered_distances",
    "relevance",
    "run_adaptive_loop",
    "task_diversity",
    "task_relevance",
]
