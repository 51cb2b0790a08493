"""Allotment rules: the three classical rules, the simple rules and
their reallocation variants, and the five independence-gallery rules.

A simple rule has one reference point per agent: equal division omega/n,
or the agent's own endowment for the reallocation rules. Agents on the
near side of it get their peak, and `_simple_rule` builds every simple
rule from a division of the whole split that awards each other agent at
most |peak - reference point| toward their peak (excess supply mirrors
excess demand). A claims rule's integer entry (`claims._core`: cea, cel,
pro or any custom rule) and the sequential construction (`_sequential`,
a fixed integer share of each window, `SELECTORS`) read only the claims;
an explicit agent order and gallery:bar read the split's agents too.
uniform is the simple rule of cea. ced and proportional run the cel and
pro cores on the peaks, with equal gains for ced under excess supply and
equal division for proportional when every peak is 0.

Every rule but gallery:underline, which also reads a slope, is one
integer kernel over the economy's integer profile (D, peaks, omega,
endowments) (`Economy._integer_profile`), declared as its `Rule.kernel`
by `_kernel_rule`; only the reallocation kernels read endowments.
The profile holds plateaus' effective peaks (a peak is a plateau of width
zero): so the simple rules around equal division take plateaus, and
`spl:cea|cel|pro` are simple:cea|cel|pro under a second name.

Every rule takes full preferences (own-peak-onliness is checked, not built
in) and returns an exactly feasible allotment on its declared domain; its
`simple` and `kernel` come from how it was built, never declared (see `Rule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Callable, Dict, Optional, Sequence, Tuple

from .claims import (
    CLAIMS_RULES,
    ClaimsCore,
    ClaimsRule,
    _cea,
    _cel,
    _check_awards,
    _core,
    _pro,
)
from .economy import Allotment, Economy, _split_scaled

DOMAIN_SP = "SP"
DOMAIN_SP_ENDOWMENTS = "SP-with-endowments"


@dataclass(frozen=True)
class Rule:
    """A named, deterministic map from economies to feasible allotments; a
    call refuses an `allocate` that returns anything but an `Allotment`.

    `simple` and `kernel` are never passed: only a Rule that `_simple_rule`
    returns is simple, and only one that `_kernel_rule` returns has a kernel,
    which sampled option sets run in place of its calls after one `check_domain`.
    So one rebuilt around or wrapping its `allocate`, or a `dataclasses.replace`
    copy, is searched through its calls. `simple` is sound by construction: every
    allotment a simple rule returns had each award checked in [0, claim] when its
    profile was run, so each amount lies between the agent's reference point r
    and peak, and at the reference profile (every other peak at its own r) E is
    0, so the agent gets r whatever it reports: r is in every option set and is
    the truthful worst, and NOM holds without a search. A simple rule's kernel
    around equal division (`DOMAIN_SP`) reads a plateau economy's effective
    peaks, so `check_domain` lets such a rule take single-plateaued economies,
    peaks mixed in. Every rule takes single-peaked ones of at least `min_agents`
    agents (samplers and checkers skip smaller ones).
    """

    name: str
    allocate: Callable[[Economy], Allotment] = field(compare=False, repr=False)
    domain: str = DOMAIN_SP
    simple: bool = field(init=False, default=False)
    min_agents: int = 2
    kernel: Callable = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.domain not in (DOMAIN_SP, DOMAIN_SP_ENDOWMENTS):
            raise ValueError(f"unknown domain {self.domain!r}")

    def __call__(self, econ: Economy) -> Allotment:
        self.check_domain(econ)
        x = self.allocate(econ)
        if not isinstance(x, Allotment):
            kind = type(x).__name__
            raise TypeError(f"rule {self.name} must return an Allotment, not {kind}")
        return x

    def _check_agents(self, n) -> None:
        """Refuse an int agent count n below `min_agents`; any other n is
        left to `economy._checked_size`."""
        if type(n) is int and n < self.min_agents:
            raise ValueError(
                f"rule {self.name} needs at least {self.min_agents} agents, got {n}"
            )

    def check_domain(self, econ: Economy) -> None:
        """Refuse an economy off this rule's domain (see `Rule`)."""
        if not (self.simple and self.domain == DOMAIN_SP or econ.is_single_peaked):
            raise ValueError(f"rule {self.name} needs single-peaked preferences")
        if self.domain == DOMAIN_SP_ENDOWMENTS and econ.endowments is None:
            raise ValueError(f"rule {self.name} needs individual endowments")
        self._check_agents(econ.n)


def _kernel_rule(name: str, kernel: Callable, domain=DOMAIN_SP, min_agents=2) -> Rule:
    """The Rule of an integer kernel (D, peaks, omega, endowments) -> (unit,
    amounts), and the one place a Rule's `kernel` is set: to the raw kernel,
    which `manipulation._sampler` runs once per opponent profile. Its `allocate`
    runs the kernel on the economy's integer profile and keeps its last run: a
    kernel is a deterministic function of its profile alone, so an economy with
    the same integer profile as the last one, such as an own-peak-only slope
    variant of it, reuses that (unit, amounts), which no caller mutates. A rule
    on `DOMAIN_SP` reads no endowments, so it runs and keys its kernel on None
    for them, as the sampler does. A refusal is not kept, so it is raised
    again. `Allotment._of_scaled` still checks feasibility on every call; a
    simple rule's awards are checked when its kernel runs."""
    cached = lru_cache(maxsize=1)(kernel)

    def allocate(econ: Economy) -> Allotment:
        common, peaks, omega, endowments = econ._integer_profile()
        run = cached(common, peaks, omega, endowments if domain != DOMAIN_SP else None)
        return Allotment._of_scaled(*run, econ.omega)

    rule = Rule(name, allocate, domain=domain, min_agents=min_agents)
    object.__setattr__(rule, "kernel", kernel)
    return rule


# ---------------------------------------------------------------------------
# simple rules: one builder over a division of the split


def _simple_rule(
    division: ClaimsCore, name: str, domain: str = DOMAIN_SP, min_agents: int = 2
) -> Rule:
    """The simple rule of a division around a reference point: omega/n, or
    each agent's own endowment on the reallocation domain.

    Simple agents receive their peak; each non-simple agent moves from the
    reference point toward their peak (up under excess demand, down under
    excess supply) by their award. `division(claims, E, D, split)` returns
    (awards, scale), over D * scale, for the claims |peak - reference| of
    the non-simple agents as the split lists them; a claims-rule core reads
    the first three only. Every run of the division checks its awards
    (`_check_awards`), so every allotment returned had its awards checked
    when its profile was run: a division that leaves [0, claim] or misses
    E is refused, not trusted, and refused again on a repeat, as
    `_kernel_rule` keeps no refusal.
    """

    def kernel(common, peaks, omega, endowments):
        if domain == DOMAIN_SP:
            endowments = None  # around equal division
        elif endowments is None:
            raise ValueError(f"rule {name} needs individual endowments")
        split = _split_scaled(common, peaks, omega, endowments)
        common, peaks, scaled, z, left, _, minus = split
        claims = [abs(peaks[i] - scaled[i]) for i in minus]
        awards, scale = division(claims, abs(left), common, split)
        _check_awards(claims, abs(left), common, awards, scale)
        amounts = [p * scale for p in peaks]  # plus agents keep their peak
        for nu, i in zip(awards, minus):
            r = scaled[i] * scale
            amounts[i] = r + nu if z >= 0 else r - nu
        return common * scale, amounts

    rule = _kernel_rule(name, kernel, domain, min_agents)
    object.__setattr__(rule, "simple", True)
    return rule


def simple_from_claims(claims_rule: ClaimsRule, name: Optional[str] = None) -> Rule:
    """The simple rule driven by the given claims rule, around equal
    division omega/n; unless named, simple:cea|cel|pro for a built-in claims
    rule and simple:custom for any other. A custom claims rule must be a
    function of its problem: the rule keeps its last run (`_kernel_rule`),
    so an economy whose integer profile equals the last one's reuses that
    allotment and does not hand the claims rule its problem again."""
    known, core = _core(claims_rule)
    return _simple_rule(core, name or f"simple:{known}")


def simple_reallocation_from_claims(
    claims_rule: ClaimsRule, name: Optional[str] = None
) -> Rule:
    """Reallocation variant: each agent's endowment replaces equal division
    as the reference point, and the claims are |peak - endowment|."""
    known, core = _core(claims_rule)
    return _simple_rule(core, name or f"realloc:{known}", DOMAIN_SP_ENDOWMENTS)


# ---------------------------------------------------------------------------
# three classical rules, on the claims-rule cores


def _ced(common: int, peaks: Sequence[int], omega: int, _):
    z = sum(peaks) - omega
    if z >= 0:
        # equal losses from the peaks: the cuts total the excess demand
        amounts, scale = _cel(peaks, omega, common)
        return common * scale, amounts
    # equal gains: every peak is raised by (omega - sum(peaks)) / n
    n = len(peaks)
    return common * n, [p * n - z for p in peaks]


def _equal_division(common: int, peaks: Sequence[int], omega: int, _):
    n = len(peaks)
    return common * n, [omega] * n


def _proportional(common: int, peaks: Sequence[int], omega: int, _):
    if not any(peaks):
        return _equal_division(common, peaks, omega, None)
    amounts, scale = _pro(peaks, omega, common)
    return common * scale, amounts


# the uniform rule (Sprumont 1991) is the simple rule of equal awards
uniform = _simple_rule(_cea, "uniform")
ced = _kernel_rule("ced", _ced)
proportional = _kernel_rule("proportional", _proportional)


# ---------------------------------------------------------------------------
# sequential-adjustment construction (a claims rule over claim positions)

# each selector's share (a, b) of the window: the award lo + (hi - lo) * a / b
SELECTORS = {"lo": (0, 1), "hi": (1, 1), "mid": (1, 2), "quarter": (1, 4)}
ORDER_POLICIES = ("ascending", "descending")


def _sequential(share: Tuple[int, int], order=None) -> ClaimsCore:
    """The sequential construction as a claims-rule core. The claimants
    are visited by position: ascending, or descending for the policy
    "descending", or, for an explicit `order` of agents, at their
    positions among the split's non-simple agents, refused on a split
    whose non-simple agents it does not enumerate. Each gets the award
    lo + (hi - lo) * a / b, for the share (a, b), of the window that keeps
    every later step feasible: at most the claim (`gap`) and what is left
    of E (`room`), at least room less the claims still to come (`floor`).
    The last gets the room. An award off the grid 1/(D*scale) refines the
    scale. The window is never empty: by induction the room stays in [0,
    the claims still to come] whenever 0 <= E <= the sum of the claims,
    which `_split_scaled` and `ClaimsProblem` both guarantee, and
    `_simple_rule` checks every award with `_check_awards` anyway."""
    a, b = share

    def core(claims, endowment, common, split=None):
        if order is None or isinstance(order, str):
            positions = range(len(claims))[:: -1 if order == "descending" else 1]
        else:
            minus = split[-1]
            if sorted(order) != minus:
                raise ValueError(
                    "order must enumerate the non-simple agents "
                    + ", ".join(str(i + 1) for i in minus) + " (numbered from 1)"
                )
            position = {i: j for j, i in enumerate(minus)}
            positions = [position[i] for i in order]
        awards = [0] * len(claims)
        scale, room, rest = 1, endowment, sum(claims)
        for j in positions[:-1]:
            rest -= claims[j]
            gap, floor = claims[j] * scale, room - rest * scale
            lo = floor if floor > 0 else 0
            hi = room if room < gap else gap
            unit = common * scale
            # the award p / q, reduced, on integers
            p, q = lo * b + (hi - lo) * a, unit * b
            g = gcd(p, q)
            p, q = p // g, q // g
            refine = q // gcd(unit, q)
            if refine > 1:  # the award lies off the grid 1/(D*scale): refine it
                scale, unit, room = scale * refine, unit * refine, room * refine
                awards = [x * refine for x in awards]
            awards[j] = p * (unit // q)
            room -= awards[j]
        if positions:
            awards[positions[-1]] = room
        return awards, scale

    return core


def sequential_rule(selector: str = "lo", order=None) -> Rule:
    """The sequential construction as the simple rule named
    simple:appendix-b[selector], any given order appended to the name
    (agents numbered from 1), the name `get_rule` reads back.

    Simple agents start at their peak and the rest at equal division; the
    non-simple agents are then visited in `order`, and each is adjusted by
    the share `SELECTORS[selector]` of the window that keeps every later
    step feasible. The last visited agent's amount is pinned by
    feasibility. `order` is an ordering policy ("ascending", the default,
    or "descending") or, for single-economy use, an explicit sequence of
    distinct agent indices (from 0); any other order is refused here, as
    no economy accepts it. Any other selection is a claims rule: build its
    simple rule with `simple_from_claims`.
    """
    if selector not in SELECTORS:
        raise ValueError(
            f"unknown selector {selector!r}; choose from " + ", ".join(SELECTORS)
        )
    tag = selector
    if isinstance(order, str):
        if order not in ORDER_POLICIES:
            raise ValueError(
                f"unknown order policy {order!r}; choose ascending or descending"
            )
        tag += f",{order}"
    elif order is not None:
        order = list(order)
        agents = all(type(i) is int and i >= 0 for i in order)
        if not order or not agents or len(set(order)) < len(order):
            # numbered from 1, like the refusal of an order at call time
            shown = ", ".join(str(i + 1) if type(i) is int else repr(i) for i in order)
            raise ValueError(
                "an explicit order must list distinct agents (numbered from 1),"
                f" got [{shown}]"
            )
        tag += ",order=" + ",".join(str(i + 1) for i in order)
    core = _sequential(SELECTORS[selector], order)
    return _simple_rule(core, f"simple:appendix-b[{tag}]")


# ---------------------------------------------------------------------------
# independence gallery: each rule fails exactly one axiom; all but
# underline are integer kernels, falling back to uniform's

_uniform = uniform.kernel


def _star(common: int, peaks: Sequence[int], omega: int, _):
    # first two agents absorb omega when their peaks split it exactly and
    # every other peak differs from both
    first, second = peaks[0], peaks[1]
    if first + second == omega and all(p not in (first, second) for p in peaks[2:]):
        return common, [first, second] + [0] * (len(peaks) - 2)
    return _uniform(common, peaks, omega, None)


def _bar(claims, endowment, common, split):
    # cea's awards but where both leading peaks are omega and the rest 0:
    # there agents 1 and 2 get omega/3 and 2 omega/3 (the split is over D*n)
    _, peaks, reference, _, _, _, _ = split
    omega = reference[0] * len(peaks)
    if peaks[0] == peaks[1] == omega and not any(peaks[2:]):
        return [omega - 3 * reference[0], 2 * omega - 3 * reference[1]], 3
    return _cea(claims, endowment, common)


def _hat(common: int, peaks: Sequence[int], omega: int, _):
    # under excess supply the minimum-peak agents soak up the whole residual,
    # which may leave them beyond equal division (no clamping)
    if sum(peaks) >= omega:
        return _uniform(common, peaks, omega, None)
    low = min(peaks)
    hatted = peaks.count(low)
    residual = omega - sum(peaks) + low * hatted  # what the hatted agents share
    return common * hatted, [residual if p == low else p * hatted for p in peaks]


def _underline(econ: Economy) -> Allotment:
    # consults agent 1's full preference: the 0-versus-equal-division
    # comparison, not just the peak; the two conditions on the integer
    # profile come first, so the disutilities are computed only when they
    # hold
    common, peaks, omega, _ = econ._integer_profile()
    first = econ.prefs[0]
    if (
        sum(peaks[1:]) >= omega
        and all(peaks[0] < p for p in peaks[1:])
        and first.disutility(0) < first.disutility(econ.equal_share)
    ):
        peaks = (0, *peaks[1:])  # uniform as if agent 1's peak were 0
    return Allotment._of_scaled(*_uniform(common, peaks, omega, None), econ.omega)


GALLERY = {
    "equal_division": _kernel_rule("gallery:equal_division", _equal_division),
    "star": _kernel_rule("gallery:star", _star, min_agents=3),
    "bar": _simple_rule(_bar, "gallery:bar", min_agents=3),
    "hat": _kernel_rule("gallery:hat", _hat),
    "underline": Rule("gallery:underline", _underline),
}


def gallery(name: str) -> Rule:
    """One of the five axiom-independence rules by name."""
    if name not in GALLERY:
        raise ValueError(
            f"unknown gallery rule {name!r}; choose from " + ", ".join(sorted(GALLERY))
        )
    return GALLERY[name]


# ---------------------------------------------------------------------------
# name-based registry (CLI entry point)

# every registered rule by name, built once; simple:appendix-b holds its
# default, simple:appendix-b[lo]
_CLAIMS = sorted(CLAIMS_RULES.items())
_REGISTRY: Dict[str, Rule] = {
    "uniform": uniform,
    "ced": ced,
    "proportional": proportional,
    **{f"simple:{r}": simple_from_claims(c, f"simple:{r}") for r, c in _CLAIMS},
    "simple:appendix-b": sequential_rule(),
    **{
        f"realloc:{r}": simple_reallocation_from_claims(c, f"realloc:{r}")
        for r, c in _CLAIMS
    },
    **{f"spl:{r}": simple_from_claims(c, f"spl:{r}") for r, c in _CLAIMS},
    **{f"gallery:{g}": GALLERY[g] for g in sorted(GALLERY)},
}
RULE_NAMES = list(_REGISTRY)


def get_rule(name: str) -> Rule:
    """The rule that prints `name`: a registered name, like "simple:cea" or
    "gallery:bar", or a sequential rule's simple:appendix-b[S],
    [S,ascending|descending] or [S,order=i,j,...] (agents numbered from 1),
    which `sequential_rule` builds and refuses as it does its arguments.

    Every registered name, and simple:appendix-b[lo] (the registered
    simple:appendix-b), returns its one Rule, so every lookup shares its
    kept last run; any other sequential name builds a new Rule per call.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    head, _, tag = str(name).partition("[")
    if head != "simple:appendix-b" or not tag.endswith("]"):
        raise ValueError(f"unknown rule {name!r}; choose from " + ", ".join(RULE_NAMES))
    if tag == "lo]":
        return _REGISTRY[head]
    selector, comma, order = tag[:-1].partition(",")
    if order.startswith("order="):
        order = [int(i) - 1 if i.isdecimal() else i for i in order[6:].split(",")]
    return sequential_rule(selector, order if comma else None)
