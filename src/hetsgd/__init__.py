"""hetsgd: deterministic local-SGD simulator for heterogeneous compute.

Simulates parallel neural-network training where fast and slow workers
perform unequal numbers of local updates per communication round, with
loss-biased data sampling and update-count-weighted model aggregation, plus
synchronous-SGD and balanced-local-SGD baselines and a simulated clock that
prices compute, communication, and barrier blocking.
"""

from .aggregation import aggregate, aggregation_weights
from .config import ExperimentConfig, ConfigError, parse_config, parse_config_file, validate
from .core import RngStream
from .data import (Dataset, EpochCursor, InvalidLambdaError, LossLedger, SyntheticSpec,
                   assign, fast_per_worker, load_dataset, make_synthetic, pool_size,
                   record_losses, sample_separated, save_csv, share_sizes,
                   slow_total, train_val_split)
from .harness import RoundRecord, RunResult, bundled_config_path, render_csv, run, write_outputs
from .models import (Batch, ModelSpec, backward, finite_diff_grad, forward_loss, init_params,
                     param_count)
from .simclock import CostModel, RoundTiming, clock, round_timing
from .workers import (DivergenceError, SystemProfile, WorkerSpec, derive_tau_s, lr_schedule,
                      train_round)

__version__ = "0.1.0"
