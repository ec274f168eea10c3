"""Label-flip-driven re-initialization for online-adapting classifiers.

The library tracks how often (and how confidently) an adapting model changes
its own predictions between consecutive update steps, smooths that trajectory,
and triggers weight re-initialization when the trajectory rises sharply off
its running minimum. Restoration blends the frozen source weights with the
adapted weights. A harness plus CLI evaluate the policy against no-reset and
clock-based baselines on synthetic drifting streams.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .flip_signal import FlipSignalState, observe_batch
from .harness import (
    ComparisonSummary,
    ExperimentLog,
    LogRow,
    compare_policies,
    export_log,
    import_log_jsonl,
    run_experiment,
)
from .learner import (
    DivergenceError,
    EntropyMin,
    ModelState,
    Prediction,
    PretrainConfig,
    RobustPseudoLabel,
    adapt_batch,
    pretrain_source,
)
from .policy import (
    BalancedReset,
    FixedInterval,
    HardReset,
    NoReset,
    PolicyDecision,
    RandomTiming,
    TriggerConfig,
    blend_weights,
    compute_lambda,
    policy_name,
    policy_step,
    slope,
    trigger_check,
)
from .stream import (
    CorruptionKind,
    Domain,
    DomainSchedule,
    LabeledBatch,
    SourceDistribution,
    Transition,
    make_schedule,
    sample_batch,
)

__version__ = "0.1.0"
