"""Online variational inference over mean-field Gaussians.

Subpackages map to the pipeline: ``family`` (the variational family and
its parameterizations), ``losses`` (point and expected losses with
gradients), ``learners`` (the online update rules and the run loop),
``evaluation`` (regret accounting, comparators, bound calculators),
``data`` (generators and CSV ingestion), ``cli`` (the experiment harness),
``rng`` (the deterministic counter-based generator).
"""

import time

#: When the package began to import; ``onlinevi run`` reports the time from
#: here to the start of the command as its ``import`` phase.
_import_start = time.perf_counter()

import os  # noqa: E402

# One OpenBLAS thread unless the user chose a count.  The products here are
# too small for a second thread to help, an idle OpenBLAS worker busy-waits
# (CPU spent on no work), and a product large enough to thread splits its
# sums by the core count, which can move the outputs' last bits.  It must be
# set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .family import (
    SIGMA_FLOOR,
    BoxConstraints,
    GaussianPrior,
    MeanFieldGaussian,
    NaturalParams,
    from_natural,
    h_map,
    kl_divergence,
    project_box,
    to_natural,
)
from .losses import (
    DataExample,
    ExpectedLossGradient,
    LossKind,
    expected_loss,
    expected_loss_grad,
    lipschitz_constant,
    mc_expected_loss_and_grad,
    point_grad,
    point_loss,
)
from .learners import (
    EwaGridConfig,
    FixedEta,
    InvSigmaSqrtT,
    NgviConfig,
    OgaConfig,
    OgaElConfig,
    Decisions,
    SvaConfig,
    SvbConfig,
    Thm3ConvexSchedule,
    Thm3StrongSchedule,
    Trace,
    grid_pass,
    lockstep,
    run_online,
)
from .evaluation import (
    BoundInputs,
    ComparatorResult,
    DecisionMean,
    JensenAudit,
    RegretLedger,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    ogael_bound,
    jensen_holdout_audit,
    ogael_kl_bound,
    online_to_batch,
    regret,
    sva_bound,
    svb_bounds,
)
from .data import (
    CsvSchema,
    Dataset,
    StreamConfig,
    gen_iid_regression,
    gen_toy_classification,
    load_csv,
    prepare_stream,
)

__version__ = "0.1.0"
