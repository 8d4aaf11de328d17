"""Exact symbolic computation with Tate motives.

The package computes motivic decompositions of a catalog of varieties as
direct sums of powers of the Lefschetz motive, runs the graded morphism
calculus of the orbit category of the Tate twist (including the lift that
recovers a motive from its image there), does the additive-invariant rank
bookkeeping for semiorthogonal decompositions, checks the standard
obstructions to full exceptional collections, and evaluates the two motivic
measures that factor through the Lefschetz class.  Everything is exact
integer or rational arithmetic.
"""

from .tate import (
    DomainError,
    InputError,
    NonEffectiveError,
    PoincarePoly,
    TateMotive,
    direct_sum,
    lefschetz,
    poincare,
    tensor,
)
from .orbit import (
    CompositionError,
    LiftError,
    NotAnIsomorphismError,
    OrbitMorphism,
    RankMismatchError,
    SupportViolationError,
    block_unit_iso,
    canonical_unit_iso,
    compose,
    decompose_via_orbit,
    identity_morphism,
)
from .sod import (
    Collection,
    FecVerdict,
    InconsistentRanksError,
    SODPiece,
    UnderdeterminedError,
    fec_obstruction,
    solve_nc_ranks,
)
from .varieties import (
    Blowup,
    CollectionUnavailableError,
    DisjointUnion,
    Fano3fold,
    GeneralizedMotive,
    Grassmannian,
    InvalidParameterError,
    ModuliM0,
    OpaqueMotiveError,
    OpaquePart,
    Point,
    Product,
    ProjBundle,
    Projective,
    Quadric,
    Toric,
    VarietyExpr,
    dimension_of,
    exceptional_collection_of,
    fec_verdict,
    motive_of,
)
from .measures import (
    HodgeDelignePoly,
    K0Class,
    VirtualClassError,
    chi_gs,
    chi_hd,
    hodge_numbers,
    hodge_tate,
    k0_class,
)
from .exprlang import ParseError, SemanticError, parse_expr, render_expr

__version__ = "0.1.0"
