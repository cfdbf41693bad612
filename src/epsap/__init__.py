"""Recognizers, constructions, and exact desk-scale measurements for
approximate arithmetic progressions and their m-dimensional cube analogues."""

from .colorings import (
    AlternateLabeling,
    BlowupSpec,
    Coloring,
    LowerBoundParams,
    MonochromeWitness,
    build_alternate_labeling,
    build_blowup_1d,
    build_lower_bound_coloring,
    build_simple_r2_coloring,
    lower_bound_params,
    verify_no_mono_ap,
)
from .density import (
    CubeBlowupSpec,
    DigitConstruction,
    TranslateResult,
    apk_free_set,
    build_behrend_digit_set,
    build_cube_blowup,
    find_dense_translate,
    product_free_set,
    verify_cube_free,
)
from .errors import MemoryGuardExceeded, SearchCapExceeded
from .geometry import (
    CubeDecision,
    FeasibleRegion2D,
    IndexedGrid,
    IndexingError,
    Witness1D,
    WitnessMD,
    index_grid_points,
    min_enclosing_ball,
    recognize_ap,
    recognize_cube,
    region_add_point,
    region_closed_empty,
    region_new,
)
from .search import (
    EpsApHypergraph,
    SearchOutcome,
    enumerate_eps_aps,
    exact_W,
    exact_f,
    find_eps_ap_in_points,
    max_exact_ap_free,
)

__version__ = "0.1.0"
