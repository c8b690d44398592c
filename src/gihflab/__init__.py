"""Bounded-repetition word combinatorics and a multicollision attack lab.

The library splits into a pure combinatorics core (words, classics,
regularity, nesting) and a simulation half (hashsim, attacks) glued
together by a JSON-reporting CLI.
"""

__version__ = "0.1.0"

from .attacks import (
    AttackReport,
    CollisionGroup,
    MulticollisionSet,
    VerificationResult,
    complexity_bound,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from .classics import Cadence, NDivision, find_arithmetic_cadence, find_n_division
from .hashsim import (
    BlockSampler,
    CompressionOracle,
    Schedule,
    birthday_search,
    f_alpha,
    f_plus,
    gihf_eval,
    identity_schedule,
    mirror_schedule,
    schedule_from_words,
)
from .nesting import (
    AttackCertificate,
    ConstructionError,
    attack_threshold,
    factorization_subset,
    find_attack_structure,
    partition_bijection,
    verify_attack_structure,
    verify_nesting,
)
from .regularity import (
    ComputeNResult,
    SearchOutcome,
    StructureCertificate,
    canonical_bounded_words,
    compute_n,
    factorization_count,
    find_structure,
    extremal_witness,
    structure_threshold,
    verify_structure,
)
from .words import Word, condense, is_permutation, project
