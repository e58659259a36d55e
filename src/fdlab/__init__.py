"""fdlab: functional-dependency semantics over tables with incomplete information."""

from .errors import (
    FdlabError,
    IndexContractError,
    ModelError,
    ParseError,
    PfdPreconditionError,
    PfdRejected,
    ReductionError,
    SchemaError,
    ValuationBudgetExceeded,
    WorldLimitExceeded,
)
from .model import (
    DisjunctiveTuple,
    Model,
    Schema,
    StandardTuple,
    Table,
    VagueTuple,
    enumerate_worlds,
    project_table,
    project_tuple,
    to_disjunctive,
    to_disjunctive_tuple,
)
from .semantics import (
    CheckReport,
    FunctionalDependency,
    Semantics,
    check,
    check_pfd,
    check_rm,
    check_seamless,
    check_standard,
    check_strong,
    check_vertical,
    check_weak,
    resemblance,
    select,
    tuple_resemblance,
)
from .armstrong import (
    Derivation,
    DerivationStep,
    attribute_closure,
    check_derivation,
    derive,
    implies,
)
from .valuation import (
    ReductionOutput,
    ThreeDMInstance,
    generate_3dm_reduction,
    parse_3dm,
    seamless_valuation_pfd,
    seamless_valuation_rows,
    serialize_3dm,
    solve_3dm_bruteforce,
)
from .pfd_index import Conflict, PfdIndex
from .formats import parse_fds, parse_table, serialize_fds, serialize_table

__version__ = "0.1.0"
