"""Online variational inference over mean-field Gaussians.

Subpackages map to the pipeline: ``family`` (the variational family and
its parameterizations), ``losses`` (point and expected losses with
gradients), ``learners`` (the online update rules and the run loop),
``evaluation`` (regret accounting, comparators, bound calculators),
``data`` (generators and CSV ingestion), ``cli`` (the experiment harness),
``rng`` (the deterministic counter-based generator).
"""

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
    SvaConfig,
    SvbConfig,
    Thm3ConvexSchedule,
    Thm3StrongSchedule,
    Trace,
    run_online,
)
from .evaluation import (
    BoundInputs,
    ComparatorResult,
    RegretLedger,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    ogael_bound,
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
