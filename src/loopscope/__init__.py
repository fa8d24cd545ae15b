"""loopscope: a desk-scale lab for looped latent-reasoning transformers.

Train a weight-tied recurrent transformer whose intermediate states are all
decoder-ready, decode its belief over the answer options at every recurrence
step, and analyze the resulting deliberation trajectories: exploration
phases, backtracking events, and what kinds of answers get abandoned.
"""

from .autograd import NumericError, ShapeError, Tensor2, finite_diff_check
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .metrics import (
    BacktrackEvent,
    BeliefTrajectory,
    Stat,
    aggregate_stats,
    belief_trajectory,
    bootstrap_ci,
    detect_backtracks,
    entropy,
    exploration_end,
    read_trajectories_jsonl,
    similarity_rank,
    step_kl,
    write_trajectories_jsonl,
)
from .model import (
    LoopedConfig,
    LoopedModelParams,
    StepDistribution,
    deliberate,
    init_params,
    run_deliberation,
)
from .pipeline import (
    ExperimentConfig,
    ExperimentReport,
    PipelineError,
    run_experiment,
    verify,
)
from .seeds import derive_seed
from .svgplot import emit_entropy_plot, emit_trajectory_plot
from .taskgen import (
    Benchmark,
    PermutedItem,
    QuestionItem,
    SyntheticWorld,
    build_world,
    generate_benchmark,
    render_tokens,
    write_benchmark_jsonl,
)
from .training import TrainConfig, TrainLog, evaluate_accuracy, train

__version__ = "0.1.0"
