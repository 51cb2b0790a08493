"""Verdicts of every axiom check, and `_scan`, the one scan that builds them.

A leaf: it imports nothing from the package (its annotations name
`Economy` and `Rule` unimported), so `axioms` and `manipulation` both
import it. `_scan` skips cases with fewer agents than the rule needs and
stops at the first witness. FAIL carries it; PASS_ON_SAMPLE is evidence,
not proof; NO_CASES means no case was inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, TypeVar

PASS_ON_SAMPLE = "PASS_ON_SAMPLE"
FAIL = "FAIL"
NO_CASES = "NO_CASES"

_Case = TypeVar("_Case")


@dataclass(frozen=True)
class Witness:
    """A reproducible violation: economy, agents involved, exact details."""

    economy: Economy
    agents: Tuple[int, ...]
    description: str
    perturbed: Optional[Economy] = None
    detail: object = None


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str
    checked: int
    witness: Optional[Witness] = None

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def line(self) -> str:
        text = f"{self.axiom}: {self.verdict}"
        if self.witness is not None:
            text += f" ({self.witness.description})"
        return text


def _scan(
    axiom: str,
    rule: Rule,
    cases: Iterable[_Case],
    violation: Callable[[_Case], Optional[Witness]],
) -> AxiomReport:
    """Inspect each case the rule is defined on (n >= rule.min_agents, e.g.
    n >= 3 for some gallery rules) until `violation` returns a witness."""
    checked = 0
    for case in cases:
        if case.n < rule.min_agents:
            continue
        checked += 1
        witness = violation(case)
        if witness is not None:
            return AxiomReport(axiom, FAIL, checked, witness)
    return AxiomReport(axiom, PASS_ON_SAMPLE if checked else NO_CASES, checked)
