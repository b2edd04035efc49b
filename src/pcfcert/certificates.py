"""Structured verdicts with replayable witness trails."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Verdict(str, Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    INCONCLUSIVE = "Inconclusive"


class HypothesisUnmet(Exception):
    """A certificate route's stated hypothesis fails on the given input."""


class Unsupported(Exception):
    """No implemented backend applies (e.g. ramification undetermined)."""


class OracleMismatch(Exception):
    """An exact identity re-checked after a computation does not hold: the
    discriminant recursion against the resultant oracle, an assembled
    parameter polynomial, a norm form, a Hensel lift or an orbit-type
    witness."""


@dataclass
class Certificate:
    """Verdict for one claim, with the evidence needed to replay it.

    ``witnesses`` is an append-only list of dicts (JSON-ready); ``taint``
    is inherited from any number field whose defining polynomial was only
    assumed irreducible.
    """

    claim: str
    verdict: Verdict
    witnesses: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    taint: bool = False

    def witness(self, step: str, **data) -> None:
        self.witnesses.append({"step": step, **data})

    def diagnose(self, message: str) -> None:
        self.diagnostics.append(message)

    @property
    def verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED
