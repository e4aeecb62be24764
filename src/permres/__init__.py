"""permres: exact Hilbert functions, graded Betti numbers, and resolution
data for ideals of sub-permanents, minors, and square-free monomials, with
every closed form backed by an independent brute-force oracle."""

__version__ = "0.1.0"

from .formulas import (
    det_linear_strand_dim,
    perm2_f_vector,
    perm2_hilbert_polynomial,
    perm2_ideal_hilbert,
    perm2_quotient_hilbert,
    perm_linear_strand_dim,
    sqfree_betti,
    sqfree_ideal_hilbert,
    sqfree_quotient_hilbert,
)
from .ideals import (
    IdealSpec,
    SubmatrixSelector,
    det_hw_syzygy,
    expand_generators,
    monomial_syzygy,
    tensor_laplace,
)
from .lascoux import (
    BottOutcome,
    ResolutionTerm,
    bott_reduce,
    det_ideal_hilbert,
    lascoux_terms,
    perm_ambient_linear_strand,
    resolution_via_bott,
)
from .modular import PrimeField, agree_over_primes, prime_fields
from .oracle import betti_oracle, hilbert_oracle, quotient_basis
from .partitions import conjugate, schur_dim, specht_dim
from .simplicial import (
    SimplicialComplex,
    alexander_dual_ideal,
    perm2_complex,
    skeleton_complex,
)
from .tensorspace import (
    ResourceCapError,
    TensorElement,
    koszul_transpose,
    multiply_map_rank,
)

__all__ = [
    "BottOutcome",
    "IdealSpec",
    "PrimeField",
    "ResolutionTerm",
    "ResourceCapError",
    "SimplicialComplex",
    "SubmatrixSelector",
    "TensorElement",
    "agree_over_primes",
    "alexander_dual_ideal",
    "betti_oracle",
    "bott_reduce",
    "conjugate",
    "det_hw_syzygy",
    "det_ideal_hilbert",
    "det_linear_strand_dim",
    "expand_generators",
    "hilbert_oracle",
    "koszul_transpose",
    "lascoux_terms",
    "monomial_syzygy",
    "multiply_map_rank",
    "perm2_complex",
    "perm2_f_vector",
    "perm2_hilbert_polynomial",
    "perm2_ideal_hilbert",
    "perm2_quotient_hilbert",
    "perm_ambient_linear_strand",
    "perm_linear_strand_dim",
    "prime_fields",
    "quotient_basis",
    "resolution_via_bott",
    "schur_dim",
    "simplicial",
    "skeleton_complex",
    "specht_dim",
    "sqfree_betti",
    "sqfree_ideal_hilbert",
    "sqfree_quotient_hilbert",
    "tensor_laplace",
]
