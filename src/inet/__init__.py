"""Interaction-net runtime with demand-driven weak reduction.

Configurations are multisets of equations over agent terms with linear
names. Reduction is driven by a queue of needed entities and performs
constant-work steps: interactions, indirections, and delegations.
A full-reduction mode serves as a differential oracle.
"""

from .core import (
    AgentSymbol,
    AgentTerm,
    Configuration,
    Diagnostic,
    Equation,
    InteractionSystem,
    InvalidSystemError,
    NameTerm,
    Rule,
    RuleSet,
    RuleSide,
    Signature,
    UnknownNetError,
    configs_isomorphic,
    format_term,
    occurrence_count,
    validate_system,
)
from .engine import (
    AuditError,
    EngineConfig,
    RunResult,
    RuntimeNet,
    Stats,
    load,
    process_entry,
    readback,
    run,
)
from .syntax import (
    ParseError,
    format_config,
    format_system,
    parse,
    stats_json,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSymbol",
    "AgentTerm",
    "AuditError",
    "Configuration",
    "Diagnostic",
    "EngineConfig",
    "Equation",
    "InteractionSystem",
    "InvalidSystemError",
    "NameTerm",
    "ParseError",
    "Rule",
    "RuleSet",
    "RuleSide",
    "RunResult",
    "RuntimeNet",
    "Signature",
    "Stats",
    "UnknownNetError",
    "configs_isomorphic",
    "format_config",
    "format_system",
    "format_term",
    "load",
    "occurrence_count",
    "parse",
    "process_entry",
    "readback",
    "run",
    "stats_json",
    "validate_system",
]
