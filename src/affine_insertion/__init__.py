"""
Affine insertion on the affine symmetric group.

The package implements window-notation arithmetic, the weak and strong
orders with their strips and tableaux, the forward and reverse local rules,
growth-diagram insertion between bounded matrices and tableau pairs, the
n-core / bounded-partition dictionary, and a degree-truncated symmetric
function layer reproducing the Cauchy and Pieri identities at desk scale.
"""

import sys

from .affperm import (
    AffinePermutation,
    code,
    coroot_decompose,
    dynkin_flip,
    elements_by_length,
    format_window,
    from_reduced_word,
    from_window,
    identity,
    inversions,
    parse_window,
    reduced_word,
    rotate,
    simple_reflection,
    translation,
    transposition,
)
from .weak import (
    WeakStrip,
    WeakTableau,
    apply_cA,
    count_standard_weak,
    count_weak_tableaux,
    cyclic_components,
    cyclically_decreasing,
    cyclically_increasing,
    dual_weak_strips_from,
    weak_strip_between,
    weak_strips_from,
    weak_tableaux,
)
from .strong import (
    MarkedStrongCover,
    StrongStrip,
    StrongTableau,
    chevalley_multiplicity,
    count_standard_strong,
    count_strong_tableaux,
    is_strong_cover,
    marked_covers_above,
    marked_covers_below,
    strong_strips_from,
    strong_tableaux,
)
from .localrule import (
    CaseTag,
    FinalPair,
    InitialPair,
    InitialTriple,
    commutes_final,
    commutes_initial,
    external_insert,
    internal_insert,
    phi,
    phi_with_audit,
    psi,
    psi_with_audit,
    reverse_insert,
)
from .insertion import (
    BoundedMatrix,
    affine_insert,
    affine_uninsert,
    classical_rsk,
    classical_unrsk,
    grassmannian_rsk,
)
from .cores import (
    apply_simple,
    bounded_of,
    core_from_offsets,
    core_of,
    core_of_bounded,
    edge_sequence,
    format_partition,
    grassmannian_of,
    grassmannians_by_length,
    is_core,
    k_conjugate,
    offsets,
    parse_partition,
    partitions,
    render_strong_tableau,
    render_weak_tableau,
    spin_of_marked_cover,
    spin_tableau,
    strong_cover_cores,
)
from .symfunc import (
    SymPolynomial,
    cauchy_check,
    e_poly,
    expand_in_basis,
    h_poly,
    k_schur,
    k_schur_spin,
    pieri_checks,
    strong_schur,
    structure_constants,
    weak_schur,
)

__version__ = "0.1.0"

# Every memo in the package: each submodule attribute with a cache_info,
# found once at import, before a tracer can rebind the names.
_CACHES = frozenset(
    value
    for name, module in sys.modules.items()
    if name.startswith(__name__ + ".")
    for value in vars(module).values()
    if hasattr(value, "cache_info")
)


def clear_caches() -> None:
    """Empty every memo of the package."""
    for memo in _CACHES:
        memo.cache_clear()
