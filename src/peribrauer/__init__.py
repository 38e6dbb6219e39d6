"""Combinatorics of decomposition multiplicities for periplectic Brauer
algebras: skew diagram membership tests, generating operators, arrow
diagrams, decomposition matrices and operator relation checks."""

from .partitions import (
    Box,
    Partition,
    add_q,
    check_partition,
    conjugate,
    contains,
    format_partition,
    labels_L,
    labels_Lambda,
    parse_partition,
    partitions_of,
    remove_q,
    subpartitions,
)
from .skew import (
    EMPTY,
    Hook,
    SkewDiagram,
    components,
    conjugate_skew,
    covering,
    enumerate_skew_diagrams,
    format_skew,
    is_gamma,
    is_gamma0,
    parse_skew,
    render,
    skew_from_pair,
)
from .procedures import (
    equivalence_report,
    generate_upsilon,
    op_E_all,
    op_Ebar_all,
    op_P_all,
    op_Pbar_all,
)
from .arrows import (
    ArrowPair,
    WeightDiagram,
    arrow_pairs,
    flip,
    partition_of_weight,
    pi_set,
    rim_hook_of_flip,
    weight_of_partition,
)
from .multiplicities import (
    ConsistencyError,
    DecompositionMatrix,
    cartan_matrix,
    cartan_mult_sum,
    cartan_mult_witness,
    cell_matrix,
    cell_mult,
)
from .grothendieck import (
    apply_E,
    apply_Rq,
    basis_class,
    verify_tl,
)

__version__ = "0.1.0"
