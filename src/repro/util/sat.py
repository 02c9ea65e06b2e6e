"""3CNF formulas and two independent satisfiability solvers.

The Theorem 3.1 reduction turns 3CNF satisfiability into Boolean
regex-CQ evaluation; to *test* the reduction we need ground truth, so
this module ships a DPLL solver (unit propagation + pure literals) and
a brute-force solver, both written from scratch.  Experiment E4
cross-checks all three answers on random instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

__all__ = [
    "Literal",
    "Clause",
    "ThreeCNF",
    "dpll_satisfiable",
    "brute_force_satisfiable",
]


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal: variable index (0-based) with a polarity."""

    variable: int
    positive: bool

    def satisfied_by(self, assignment: dict[int, bool]) -> bool | None:
        value = assignment.get(self.variable)
        if value is None:
            return None
        return value == self.positive

    def __str__(self) -> str:
        prefix = "" if self.positive else "¬"
        return f"{prefix}x{self.variable}"


Clause = tuple[Literal, Literal, Literal]


@dataclass(frozen=True)
class ThreeCNF:
    """A 3CNF formula: a conjunction of exactly-three-literal clauses."""

    n_variables: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause must have exactly 3 literals")
            for literal in clause:
                if not 0 <= literal.variable < self.n_variables:
                    raise ValueError(
                        f"literal {literal} out of range for "
                        f"{self.n_variables} variables"
                    )

    @classmethod
    def random(
        cls, n_variables: int, n_clauses: int, seed: int = 0
    ) -> "ThreeCNF":
        """A random instance with distinct variables inside each clause."""
        if n_variables < 3:
            raise ValueError("need at least 3 variables for 3-literal clauses")
        rng = random.Random(seed)
        clauses = []
        for _ in range(n_clauses):
            variables = rng.sample(range(n_variables), 3)
            clause = tuple(
                Literal(v, rng.random() < 0.5) for v in variables
            )
            clauses.append(clause)
        return cls(n_variables, tuple(clauses))

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        return all(
            any(assignment[lit.variable] == lit.positive for lit in clause)
            for clause in self.clauses
        )

    def __str__(self) -> str:
        return " ∧ ".join(
            "(" + " ∨ ".join(str(lit) for lit in clause) + ")"
            for clause in self.clauses
        )


def brute_force_satisfiable(formula: ThreeCNF) -> tuple[bool, tuple[bool, ...] | None]:
    """Try all 2^n assignments; returns (satisfiable, witness)."""
    for bits in product((False, True), repeat=formula.n_variables):
        if formula.evaluate(bits):
            return True, bits
    return False, None


def dpll_satisfiable(formula: ThreeCNF) -> tuple[bool, dict[int, bool] | None]:
    """DPLL with unit propagation and pure-literal elimination."""
    clauses = [list(clause) for clause in formula.clauses]
    assignment: dict[int, bool] = {}
    result = _dpll(clauses, assignment, formula.n_variables)
    return (result, assignment if result else None)


def _dpll(
    clauses: list[list[Literal]], assignment: dict[int, bool], n_vars: int
) -> bool:
    clauses = _simplify(clauses, assignment)
    if clauses is None:
        return False
    if not clauses:
        return True

    # Unit propagation.
    for clause in clauses:
        unassigned = [
            lit for lit in clause if lit.variable not in assignment
        ]
        if len(unassigned) == 1:
            lit = unassigned[0]
            assignment[lit.variable] = lit.positive
            if _dpll(clauses, assignment, n_vars):
                return True
            del assignment[lit.variable]
            return False

    # Pure literals.
    polarity: dict[int, set[bool]] = {}
    for clause in clauses:
        for lit in clause:
            if lit.variable not in assignment:
                polarity.setdefault(lit.variable, set()).add(lit.positive)
    for variable, signs in polarity.items():
        if len(signs) == 1:
            assignment[variable] = next(iter(signs))
            if _dpll(clauses, assignment, n_vars):
                return True
            del assignment[variable]
            return False

    # Branch on the first unassigned variable of the first clause.
    variable = next(
        lit.variable
        for clause in clauses
        for lit in clause
        if lit.variable not in assignment
    )
    for value in (True, False):
        assignment[variable] = value
        if _dpll(clauses, assignment, n_vars):
            return True
        del assignment[variable]
    return False


def _simplify(
    clauses: list[list[Literal]], assignment: dict[int, bool]
) -> list[list[Literal]] | None:
    """Drop satisfied clauses; detect conflicts (all-false clauses)."""
    out: list[list[Literal]] = []
    for clause in clauses:
        satisfied = False
        open_literals = 0
        for lit in clause:
            status = lit.satisfied_by(assignment)
            if status is True:
                satisfied = True
                break
            if status is None:
                open_literals += 1
        if satisfied:
            continue
        if open_literals == 0:
            return None
        out.append(clause)
    return out


def satisfying_assignments_of_clause(clause: Clause) -> Iterator[dict[int, bool]]:
    """The (exactly seven) assignments to a clause's variables that
    satisfy it — the building block of the Theorem 3.1 reduction."""
    variables = [lit.variable for lit in clause]
    for bits in product((False, True), repeat=3):
        assignment = dict(zip(variables, bits))
        if any(assignment[lit.variable] == lit.positive for lit in clause):
            yield assignment
