"""Exact computational algebra for ladder determinantal ideals.

Constructs ladder, Schubert and poset-of-minors determinantal ideals,
builds the Frobenius-splitting witness polynomials and Knutson derivation
trees, and verifies the Groebner, height, intersection, symbolic-power
and F-purity identities they satisfy at desk scale.
"""

import os

from .fields import GF, QQ, Field, parse_field
from .groebner import (
    Ideal,
    InstanceTooLarge,
    MonomialIdeal,
    Ring,
    buchberger,
    is_groebner_basis,
    normal_form,
)
from .ideals import (
    PartialPermutation,
    PosetIdealSpec,
    corner_ideal,
    f_of_matrix,
    f_witness,
    g_witness,
    ladder_ring,
    minor_product_symbolic_degree,
    minors_in_ladder,
    mixed_ladder_ideal,
    omega_delta_ideal,
    poset_ideal,
    schubert_ideal,
)
from .knutson import (
    KnutsonDerivation,
    corner_derivation,
    derivation_from_json,
    derivation_to_json,
    ladder_derivation,
    verify as verify_derivation,
)
from .ladders import (
    Ladder,
    LadderError,
    antidiagonal_profile,
    chamfer,
    height,
    reduce_to_unmixed,
    total_width,
    unchamfer,
    validate,
)
from .oracle import (
    SymbolicCertificate,
    fedder_check,
    initial_symbolic_compare,
    symbolic_fsplit_certificate,
    symbolic_power_saturation,
)
from .poly import (
    ANTIDIAG,
    GREVLEX,
    ExponentOverflow,
    Minor,
    Polynomial,
    TermOrder,
    compare_monomials,
    expand_minor,
    grid_var,
    parse_polynomial,
    poly_to_str,
    time_limit,
)

__version__ = "0.1.0"


def load_fixture(name: str):
    """A bundled ladder fixture by name, e.g. 'staircase10' or 'full3x3'.

    The fixtures are read beside this file: `importlib.resources` would
    load `inspect` at import on Python 3.12 and later."""
    with open(os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json"), encoding="utf-8") as fh:
        return Ladder.from_json(fh.read())

