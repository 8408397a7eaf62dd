"""Computable metastable convergence over finite windows of directed sets.

The library represents directed-set windows, samplings, nets, and rates of
metastability; verifies and transforms rates; constructs the canonical
example families of binary nets with their uniform rates and adversarial
refutations; and empirically analyzes metastability of numeric iterate
sequences.
"""

from .order import (
    DirectedWindow,
    Sampling,
    WindowError,
    make_omega_window,
    make_custom_window,
    product,
    validate_sampling,
    identity_sampling,
    successor_sampling,
    doubling_sampling,
    random_sampling,
    random_samplings,
    induced_sampling,
    project_set,
)
from .space import (
    MetricSpace,
    SpaceError,
    binary_space,
    unit_interval_space,
    half_line_space,
    euclidean_space,
    table_space,
)
from .net import (
    CheckError,
    Net,
    StackedFamily,
    self_distance,
    mutual_distance,
    distance_to_point,
    window_cauchy_index,
)
from .meta import (
    DEFAULT_THRESHOLDS,
    Rate,
    RateError,
    RefutationCertificate,
    WitnessReport,
    build_rate,
    find_witness,
    find_pointed_witness,
    is_witness,
    is_pointed_witness,
    verify_rate,
    pointed_to_plain,
    selfdist_rate_to_net_rate,
    sampling_independent_bound,
    replay_certificate,
    require_replay,
    refute_uniform,
)
from .families import (
    FamilyError,
    FamilySpec,
    enumerate_family,
    rate_B,
    refute_C,
    refute_D_pointed,
    paracompact_nets,
)
from .analyze import (
    AnalysisReport,
    UmpVerdict,
    cesaro_rotation_nets,
    cesaro_envelope,
    cesaro_envelope_ok,
    empirical_rate,
    finite_space_ump_check,
    ingest_csv,
    build_sampling_suite,
)
from . import mvlogic, serialize

__version__ = "0.1.0"
