"""fdlab: functional-dependency semantics over tables with incomplete information.

`import fdlab` loads no submodule: each name below is imported from its home
module on first use (PEP 562), so a process pays only for what it runs.
"""

from importlib import import_module

_HOMES = {
    "errors": (
        "FdlabError", "IndexContractError", "ModelError", "ParseError", "PfdPreconditionError",
        "PfdRejected", "ReductionError", "SchemaError", "ValuationBudgetExceeded", "WorldLimitExceeded",
    ),
    "model": (
        "DisjunctiveTuple", "Model", "Schema", "StandardTuple", "Table", "VagueTuple", "enumerate_worlds",
        "project_table", "project_tuple", "to_disjunctive", "to_disjunctive_tuple",
    ),
    "semantics": (
        "CheckReport", "FunctionalDependency", "Semantics", "check", "check_pfd", "check_rm", "check_seamless",
        "check_standard", "check_strong", "check_vertical", "check_weak", "resemblance", "select",
        "tuple_resemblance",
    ),
    "armstrong": ("Derivation", "DerivationStep", "attribute_closure", "check_derivation", "derive", "implies"),
    "valuation": (
        "ReductionOutput", "ThreeDMInstance", "generate_3dm_reduction", "parse_3dm", "seamless_valuation_pfd",
        "seamless_valuation_rows", "solve_3dm_bruteforce",
    ),
    "pfd_index": ("Conflict", "PfdIndex"),
    "formats": ("parse_fds", "parse_table", "serialize_fds", "serialize_table"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
