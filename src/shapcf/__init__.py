"""Shapley valuation of data owners and counterfactual transfer-set explanations."""

from .core import (
    DeltaNotOwned,
    EntryId,
    MalformedInput,
    NonFiniteScore,
    OwnerId,
    OwnerPartition,
    SameOwner,
    ShapcfError,
    SingletonOwner,
    SizeOverflow,
    TooLarge,
    TooManyOwners,
    Transfer,
    UnknownColumn,
    UnknownOwner,
    apply_transfer,
    spawn_rng,
)
from .datasets import Dataset, load_csv, load_partition, split_dataset
from .explain import (
    CounterfactualResult,
    ExplainConfig,
    TransferStep,
    explain,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    gen_natural,
    gen_uniform,
    gen_vertical,
    gen_zipfian,
    run_experiment,
    write_outputs,
)
from .metrics import coefficient_of_variation, jaccard, success_rate
from .power import (
    Top1Result,
    make_power_sampler,
    power_exact,
    power_mc,
    thompson_top1,
)
from .shapley import (
    Estimate,
    FlipResult,
    diff_shapley_exact,
    diff_shapley_mc,
    is_flipped,
    shapley_exact,
    shapley_exact_all,
    shapley_mc,
)
from .utility import (
    AdditiveUtility,
    KdeUtility,
    LinRegUtility,
    LogRegUtility,
    SetCoverGame,
    SetCoverUtility,
    UtilityOracle,
    make_oracle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
