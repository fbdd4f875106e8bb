"""Brute-force reference implementations and solver certification.

Everything here works from primitive evaluations and the raw participation
/ incentive / retention comparisons, never from the closed-form results the
solvers use, so agreement between the two routes certifies the analytic
path.  Oracles are deliberately dumb: dense grids, exhaustive payment
enumeration, explicit backward induction.

The payment enumeration is still exhaustive: every pair on the grid is
checked for participation and incentive compatibility with the raw
two-sided expressions.  It is streamed through small row blocks, with the
one-dimensional factors computed once per call and every two-dimensional
step written in place, so that the temporaries stay in cache.  Each of the
agent's row-plus-column sums ``high[j] + low[i]`` in a block is one matrix
product of ``[1, low]`` and ``[high; 1]`` (:func:`_outer_sum_factors`),
which BLAS writes faster than numpy's broadcast add.  Both of its products
are exact and the sum starts from an exact zero, so it is rounded once, to
the broadcast add's value, however BLAS orders or fuses the terms; only
the sign of an exact-zero sum may differ, and no comparison tells ``+0.0``
from ``-0.0``.  The principal's surplus ``keep_high[j] + keep_low[i]`` is
never formed pair by pair: each row's best feasible surplus is the masked
maximum of the one-dimensional ``keep_high`` plus that row's
``keep_low[i]``, ``-inf`` where the row has no feasible pair.  Rounding is
monotone, so, with ``j`` over the row's feasible pairs,
``fl(max_j keep_high[j] + keep_low[i])`` equals
``max_j fl(keep_high[j] + keep_low[i])`` exactly: the row maximum of the
full surplus matrix.  So each pair's values, the feasibility mask, the
best surplus and the tie rule are those of one broadcast over the whole
grid.

Ties break deterministically: smaller investment, smaller payments, and
the effort-inducing/human-retaining option on exact payoff ties.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .contracts import Contract, ZERO_CONTRACT, evaluate_ordered, optimal_contract
from .continuous import (
    ContinuousEffortModel,
    contract_for_effort,
    foc_residual,
    principal_optimal_effort,
)
from .dynamics import (
    AgentKind,
    EffortLevel,
    PeriodRecord,
    TimelineTrace,
    simulate_two_period,
)
from .fixtures import f1, f2, f3, f4, f5
from .investment import RegimeLabel, classify_regime, optimal_investment
from .model import DomainError, ModelPrimitives, evaluate, evaluate_grid
from .report import format_number
from .sampling import random_continuous_models, random_models

_TIE_TOL = 1e-12
# Rows of t_low per block of the payment enumeration.  16 rows of a
# 1e-3 grid on [0, 2] keep each float temporary near 256 KB; with the four
# rank-2 factors (32 KB each) the working set stays under 1 MB, inside a
# 2 MB per-core L2 cache.  The block size changes speed only, never a result.
_CHUNK_ROWS = 16
# Points of the zoom next to an endpoint (:func:`_zoom_confirms_interior`),
# evaluated this many at a time so that its arrays stay near 64 KB each.
_ZOOM_POINTS = 100_001
_ZOOM_SLICE = 8_192


def _outer_sum_factors(high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``left = [1, low]`` (``n x 2``) and ``right = [high; 1]`` (``2 x n``),
    whose product is the sum ``high[None, :] + low[:, None]``, rounded as
    that broadcast add rounds it (see the module docstring).

    A row slice ``left[a:b] @ right`` gives rows ``a:b`` of the sum, and
    writing it with ``np.matmul(..., out=block)`` never reads ``block``.
    """
    ones = np.ones_like(high)
    return np.column_stack((ones, low)), np.stack((high, ones))


def _check_step(name: str, step: float) -> None:
    """:class:`DomainError` naming ``name`` unless ``step`` is a positive,
    finite grid step; a zero step would divide by zero, a NaN fail to
    round and a negative one enumerate a wrong grid without a word."""
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"{name} must be positive and finite, got {step!r}")


def _investment_grid(v_max: float, step: float) -> np.ndarray:
    num = max(int(round(v_max / step)), 1) + 1
    return np.linspace(0.0, v_max, num)


def brute_force_investment(
    model: ModelPrimitives,
    step: float = 1e-4,
    enforce_deterrent: bool = True,
) -> tuple[float, float] | None:
    """Exhaustive rent maximization on a dense grid; ties to smaller ``v``.

    With ``enforce_deterrent`` the grid is filtered by the raw retention
    comparison (contracted surplus vs. twin-alone surplus); ``None`` means
    the feasible set is empty.  Without it the unconstrained argmax is
    returned, which is what the regime labels make claims about.
    """
    _check_step("step", step)
    vs = _investment_grid(model.v_max, step)
    g = evaluate_grid(model, vs)
    gap = g.pi1 - g.pi0
    rent = g.pi0 * g.cost / gap
    if enforce_deterrent:
        wage = g.cost / gap
        with_human = g.pi1 * (model.s_high - wage) + (1.0 - g.pi1) * model.s_low
        twin_alone = g.pi0 * model.s_high + (1.0 - g.pi0) * model.s_low
        feasible = with_human - twin_alone >= -_TIE_TOL
        if not feasible.any():
            return None
        masked = np.where(feasible, rent, -np.inf)
    else:
        masked = rent
    i = int(np.argmax(masked))
    return float(vs[i]), float(rent[i])


def brute_force_contract(
    model: ModelPrimitives,
    v: float,
    payment_step: float = 1e-3,
) -> Contract | None:
    """Enumerate all payment pairs on ``[0, s_high]^2`` and keep the
    principal-surplus maximizer among those satisfying participation and
    incentive compatibility in their raw two-sided form.

    The enumeration is exhaustive: every pair on the grid is checked.
    Each of the agent's two sums, a term in ``t_high`` plus a term in
    ``t_low``, is formed per block of rows as a rank-2 matrix product
    (:func:`_outer_sum_factors`); its two products are exact, so the sum is
    rounded once and equals the broadcast add ``high[None, :] +
    low[:, None]`` up to the sign of an exact zero, which no comparison
    sees.  The surplus ``keep_high[j] + keep_low[i]`` is taken per row:
    the masked maximum of ``keep_high`` over the row's feasible pairs, plus
    ``keep_low[i]``.  Addition rounds monotonically, so that is exactly the
    largest rounded sum of the row, and ``-inf`` for a row with no feasible
    pair.  A block's best is its first largest row, and it is located, at
    the first feasible ``t_high`` whose sum equals it, only when it beats
    the best of the earlier blocks by a strict ``>``; so ties go to the
    first pair in row-major order (smaller ``t_low``, then smaller
    ``t_high``), as one masked ``argmax`` over the whole grid would.

    ``None`` when no pair on the grid induces effort (wage above the grid);
    a :class:`~twinvest.model.DomainError` unless ``pi1 > pi0`` at ``v``.
    """
    _check_step("payment_step", payment_step)
    p = evaluate_ordered(model, v)
    top = max(model.s_high, 0.0)
    num = max(int(math.ceil(top / payment_step)), 1) + 1
    payments = np.linspace(0.0, top, num)

    # Factors of the agent's sums; pair (i, j) has t_low = payments[i] and
    # t_high = payments[j].  The principal keeps keep_high[j] + keep_low[i].
    left1, right1 = _outer_sum_factors(p.pi1 * payments, (1.0 - p.pi1) * payments)
    left0, right0 = _outer_sum_factors(p.pi0 * payments, (1.0 - p.pi0) * payments)
    keep_high = p.pi1 * (model.s_high - payments)
    keep_low = (1.0 - p.pi1) * (model.s_low - payments)

    rows = min(_CHUNK_ROWS, num)
    agent_high = np.empty((rows, num))
    agent_low = np.empty((rows, num))
    feasible = np.empty((rows, num), dtype=bool)
    incentive_ok = np.empty((rows, num), dtype=bool)
    keep_rows = np.broadcast_to(keep_high, (rows, num))

    best: tuple[float, float, float] | None = None  # (surplus, t_low, t_high)
    for start in range(0, num, rows):
        stop = min(start + rows, num)
        n = stop - start
        ah, al = agent_high[:n], agent_low[:n]
        ok, ic = feasible[:n], incentive_ok[:n]
        # agent_high = pi1*t_high + (1-pi1)*t_low - cost
        np.matmul(left1[start:stop], right1, out=ah)
        np.subtract(ah, p.cost, out=ah)
        # agent_low = pi0*t_high + (1-pi0)*t_low
        np.matmul(left0[start:stop], right0, out=al)
        # participation and incentive compatibility, both two-sided
        np.subtract(ah, al, out=al)
        np.greater_equal(ah, -_TIE_TOL, out=ok)
        np.greater_equal(al, -_TIE_TOL, out=ic)
        np.logical_and(ok, ic, out=ok)
        # each row's best feasible surplus, -inf in a row with none
        row = np.maximum.reduce(keep_rows[:n], axis=1, where=ok, initial=-np.inf)
        np.add(row, keep_low[start:stop], out=row)
        i = int(row.argmax())
        value = float(row[i])
        # strict > keeps the first maximum in row-major order
        if value == -np.inf or (best is not None and value <= best[0]):
            continue
        j = int(np.argmax(ok[i] & (keep_high + keep_low[start + i] == value)))
        best = (value, float(payments[start + i]), float(payments[j]))
    if best is None:
        return None
    return Contract(best[2], best[1])


#: The payment enumerations of the running :func:`run_certification`, by
#: ``(model, v, payment_step)``, so that a run enumerates each one once.
_ENUMERATED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("enumerated", default=None)


def _enumerated_contract(model: ModelPrimitives, v: float, payment_step: float) -> Contract | None:
    """:func:`brute_force_contract`, enumerated once per ``(model, v,
    payment_step)`` within a :func:`run_certification` run.  The result is
    a pure function of those three, so a repeat takes the first one's."""
    done = _ENUMERATED.get()
    if done is None:
        return brute_force_contract(model, v, payment_step)
    key = (model, v, payment_step)
    if key not in done:
        done[key] = brute_force_contract(model, v, payment_step)
    return done[key]


def brute_force_effort(
    cmodel: ContinuousEffortModel, step: float = 1e-4
) -> tuple[float, float]:
    """Grid argmax of the principal's surplus over the effort interval."""
    _check_step("step", step)
    num = max(int(round((cmodel.e_max - cmodel.e_min) / step)), 1) + 1
    es = np.linspace(cmodel.e_min, cmodel.e_max, num)
    p = np.asarray(cmodel.p.value(es), dtype=float)
    dp = np.asarray(cmodel.p.derivative(es), dtype=float)
    t_low = np.maximum(0.0, cmodel.c0 * es - p / dp * cmodel.c0)
    t_high = t_low + cmodel.c0 / dp
    surplus = p * (cmodel.s_high - t_high) + (1.0 - p) * (cmodel.s_low - t_low)
    i = int(np.argmax(surplus))
    return float(es[i]), float(surplus[i])


# ---------------------------------------------------------------------------
# Two-period backward induction
# ---------------------------------------------------------------------------


def _employed_payoffs(model, v, contract, effort):
    p = evaluate(model, v)
    if effort is EffortLevel.HIGH:
        prob, cost = p.pi1, p.cost
    else:
        prob, cost = p.pi0, 0.0
    agent = prob * contract.t_high + (1.0 - prob) * contract.t_low - cost
    principal = prob * (model.s_high - contract.t_high) + (1.0 - prob) * (
        model.s_low - contract.t_low
    )
    return agent, principal


def _twin_surplus_at(model, v):
    p = evaluate(model, v)
    return p.pi0 * model.s_high + (1.0 - p.pi0) * model.s_low


def _myopic_best_response(model, contract, v_step):
    """Grid-enumerate the myopic period-1 choice of (investment, effort).

    Ties go to the larger investment and then to high effort, matching the
    weak-inequality conventions of the analytic path.
    """
    vs = _investment_grid(model.v_max, v_step)
    g = evaluate_grid(model, vs)
    pay_high = g.pi1 * contract.t_high + (1.0 - g.pi1) * contract.t_low - g.cost
    pay_low = g.pi0 * contract.t_high + (1.0 - g.pi0) * contract.t_low
    take_high = pay_high >= pay_low
    value = np.where(take_high, pay_high, pay_low)
    best = np.flatnonzero(value == value.max())[-1]
    effort = EffortLevel.HIGH if take_high[best] else EffortLevel.LOW
    return float(vs[best]), effort, float(value[best])


def brute_force_two_period(
    model: ModelPrimitives,
    agent_kind: AgentKind,
    v_step: float = 1e-3,
    payment_step: float = 1e-3,
) -> TimelineTrace:
    """Backward-induction enumeration of the two-period game.

    For the myopic agent the principal's two candidate offers (zero, and
    the enumerated effort-inducing contract at full training) are played
    against the agent's grid best response and the period-2 retain/fire
    comparison; the candidate with the larger two-period total wins, ties
    to the effort-inducing one.  An ``agent_kind`` that is not an
    :class:`AgentKind` raises :class:`~twinvest.model.DomainError`.
    """
    if not isinstance(agent_kind, AgentKind):
        raise DomainError(f"agent kind must be an AgentKind, got {agent_kind!r}")
    _check_step("v_step", v_step)
    if agent_kind is AgentKind.STRATEGIC:
        found = brute_force_investment(model, step=1e-4, enforce_deterrent=True)
        if found is None:
            raise ValueError("empty feasible set; no contracting outcome to trace")
        v, _ = found
        contract = _enumerated_contract(model, v, payment_step)
        if contract is None:
            raise ValueError(
                f"no effort-inducing payment pair on [0, {model.s_high:g}] at v={v:g}"
            )
        records = []
        for t in (1, 2):
            agent, principal = _employed_payoffs(model, v, contract, EffortLevel.HIGH)
            records.append(
                PeriodRecord(t, contract, v, v, EffortLevel.HIGH, True, agent, principal)
            )
        return TimelineTrace(tuple(records), None, None, None)

    candidate_b = _enumerated_contract(model, model.v_max, payment_step)
    candidates = [c for c in (candidate_b, ZERO_CONTRACT) if c is not None]

    best_total = -np.inf
    best_plan = None
    for offer in candidates:
        v, effort, _ = _myopic_best_response(model, offer, v_step)
        _, principal1 = _employed_payoffs(model, v, offer, effort)
        retain_contract = (
            candidate_b if v == model.v_max else _enumerated_contract(model, v, payment_step)
        )
        twin = _twin_surplus_at(model, v)
        if retain_contract is not None:
            _, retain = _employed_payoffs(model, v, retain_contract, EffortLevel.HIGH)
        else:
            retain = -np.inf
        keep = retain - twin >= -_TIE_TOL
        total = principal1 + (retain if keep else twin)
        if total > best_total:
            best_total = total
            best_plan = (offer, v, effort, keep, retain_contract)

    offer, v, effort, keep, retain_contract = best_plan
    agent1, principal1 = _employed_payoffs(model, v, offer, effort)
    records = [PeriodRecord(1, offer, v, v, effort, True, agent1, principal1)]
    if keep:
        agent2, principal2 = _employed_payoffs(model, v, retain_contract, EffortLevel.HIGH)
        records.append(
            PeriodRecord(2, retain_contract, v, v, EffortLevel.HIGH, True, agent2, principal2)
        )
        displaced = None
    else:
        records.append(
            PeriodRecord(2, ZERO_CONTRACT, v, v, EffortLevel.LOW, False, 0.0, _twin_surplus_at(model, v))
        )
        displaced = 2
    return TimelineTrace(tuple(records), displaced, None, None)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleDisagreement:
    inputs: str
    analytic: str
    oracle: str


@dataclass(frozen=True)
class OracleReport:
    target_op: str
    checks: int
    max_v_error: float
    max_value_error: float
    v_tolerance: float
    value_tolerance: float
    disagreements: tuple[OracleDisagreement, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.target_op}: {status} checks={self.checks} "
            f"max_v_error={format_number(self.max_v_error)} "
            f"max_value_error={format_number(self.max_value_error)}"
        )
        for d in self.disagreements:
            line += f"\n  disagreement {d.inputs}: analytic={d.analytic} oracle={d.oracle}"
        return line

    def to_dict(self) -> dict:
        """One key per field, each float written by :func:`format_number`
        and each tuple a list; ``checks`` stays an int."""

        def value(x):
            return format_number(x) if isinstance(x, float) else list(x) if isinstance(x, tuple) else x

        return asdict(self, dict_factory=lambda items: {k: value(x) for k, x in items})


class _Certifier:
    """An :class:`OracleReport` being accumulated, under its field names."""

    def __init__(self, target_op, v_tolerance, value_tolerance):
        self.target_op = target_op
        self.checks = 0
        self.max_v_error = 0.0
        self.max_value_error = 0.0
        self.v_tolerance = v_tolerance
        self.value_tolerance = value_tolerance
        self.disagreements: list[OracleDisagreement] = []

    def record(self, inputs: str, v_err: float, value_err: float, analytic: str, oracle: str):
        self.checks += 1
        self.max_v_error = max(self.max_v_error, v_err)
        self.max_value_error = max(self.max_value_error, value_err)
        if v_err > self.v_tolerance or value_err > self.value_tolerance:
            self.disagreements.append(OracleDisagreement(inputs, analytic, oracle))

    def mismatch(self, inputs: str, analytic: str, oracle: str):
        self.checks += 1
        self.disagreements.append(OracleDisagreement(inputs, analytic, oracle))

    def match(self):
        self.checks += 1

    def report(self) -> OracleReport:
        return OracleReport(**{**vars(self), "disagreements": tuple(self.disagreements)})


def certify_contract(cases: list[tuple[str, ModelPrimitives, float]]) -> OracleReport:
    """Analytic wage vs. exhaustive payment enumeration, per (model, v)."""
    cert = _Certifier("optimal_contract", 0.0, 1e-3 + 1e-9)
    for name, model, v in cases:
        analytic = optimal_contract(model, v)
        enumerated = _enumerated_contract(model, v, 1e-3)
        if enumerated is None:
            cert.mismatch(f"{name} v={v:g}", str(analytic), "no feasible pair")
            continue
        err = max(
            abs(analytic.t_high - enumerated.t_high),
            abs(analytic.t_low - enumerated.t_low),
        )
        cert.record(
            f"{name} v={v:g}", 0.0, err,
            f"({analytic.t_high:.6g}, {analytic.t_low:.6g})",
            f"({enumerated.t_high:.6g}, {enumerated.t_low:.6g})",
        )
    return cert.report()


def certify_investment(
    cases: list[tuple[str, ModelPrimitives]], step: float = 1e-4
) -> OracleReport:
    """Constrained solver optimum vs. deterrent-filtered grid argmax.

    The value comparison is one-sided: the solver must achieve at least the
    grid's rent (minus float slack).  Where the deterrent binds, the true
    optimum sits on the constraint boundary between grid points, so the
    refined solver legitimately beats the grid by a first-order margin and
    a symmetric tolerance would be meaningless.
    """
    cert = _Certifier("optimal_investment", 1e-3, 1e-9)
    for name, model in cases:
        sol = optimal_investment(model)
        found = brute_force_investment(model, step, enforce_deterrent=True)
        if found is None:
            cert.mismatch(name, f"v={sol.v_opt:.6g}", "no feasible point")
            continue
        ov, ou = found
        cert.record(
            name,
            abs(sol.v_opt - ov),
            max(0.0, ou - sol.u_at_opt),
            f"v={sol.v_opt:.6g} U={sol.u_at_opt:.8g}",
            f"v={ov:.6g} U={ou:.8g}",
        )
    return cert.report()


def _zoom_confirms_interior(model: ModelPrimitives, endpoint: float, step: float) -> bool:
    """Refined enumeration of one grid interval next to an endpoint.

    An interior rent peak can sit closer to an endpoint than the coarse
    grid step; this scans that single interval densely (resolution
    ``step * 1e-5``) and reports whether any strictly interior point beats
    the endpoint.  Still pure enumeration, just fine enough to resolve the
    claim being certified.  The points are evaluated in slices of
    :data:`_ZOOM_SLICE`, in order, and a strict ``>`` across slices keeps
    the first maximum, as one ``argmax`` over all of them would.
    """
    if endpoint == 0.0:
        vs = np.linspace(0.0, min(step, model.v_max), _ZOOM_POINTS)
    else:
        vs = np.linspace(max(model.v_max - step, 0.0), model.v_max, _ZOOM_POINTS)
    best = None  # (rent, v) of the first maximum so far
    for start in range(0, _ZOOM_POINTS, _ZOOM_SLICE):
        part = vs[start:start + _ZOOM_SLICE]
        g = evaluate_grid(model, part)
        rent = g.pi0 * g.cost / (g.pi1 - g.pi0)
        i = int(np.argmax(rent))
        if best is None or rent[i] > best[0]:
            best = (rent[i], part[i])
        if start == 0:
            first = rent[0]
    at_end = first if endpoint == 0.0 else rent[-1]
    return 0.0 < best[1] < model.v_max and best[0] > at_end


def certify_regimes(
    cases: list[tuple[str, ModelPrimitives]], step: float = 1e-3
) -> OracleReport:
    """Definite regime labels vs. the unconstrained grid argmax location.

    The monotone labels are exact on any grid.  For an interior claim whose
    coarse argmax lands on an endpoint, the adjacent interval is re-scanned
    at much finer resolution before calling it a violation, since a peak
    within one coarse step of the boundary is invisible to the coarse grid.
    """
    cert = _Certifier("classify_regime", 0.0, 0.0)
    for name, model in cases:
        label = classify_regime(model)
        if label is RegimeLabel.INDETERMINATE:
            cert.match()  # no claim made
            continue
        ov, _ = brute_force_investment(model, step, enforce_deterrent=False)
        if label is RegimeLabel.NO_INVESTMENT:
            ok = ov == 0.0
        elif label is RegimeLabel.MAX_INVESTMENT:
            ok = ov == model.v_max
        else:
            ok = 0.0 < ov < model.v_max
            if not ok:
                ok = _zoom_confirms_interior(model, ov, step)
        if ok:
            cert.match()
        else:
            cert.mismatch(name, label.value, f"argmax={ov:.6g}")
    return cert.report()


def _traces_agree(analytic: TimelineTrace, oracle: TimelineTrace, v_tol, pay_tol):
    if analytic.displacement_period != oracle.displacement_period:
        return False, "displacement_period"
    for a, o in zip(analytic.records, oracle.records):
        if a.employed != o.employed or a.effort != o.effort:
            return False, f"period {a.period} structure"
        if abs(a.investment - o.investment) > v_tol:
            return False, f"period {a.period} investment"
        if (
            abs(a.contract.t_high - o.contract.t_high) > pay_tol
            or abs(a.contract.t_low - o.contract.t_low) > pay_tol
        ):
            return False, f"period {a.period} contract"
        if (
            abs(a.agent_expected_payoff - o.agent_expected_payoff) > pay_tol
            or abs(a.principal_expected_payoff - o.principal_expected_payoff) > pay_tol
        ):
            return False, f"period {a.period} payoff"
    return True, ""


def certify_two_period(cases: list[tuple[str, ModelPrimitives]]) -> OracleReport:
    """Game simulation vs. backward-induction enumeration, both agent kinds."""
    cert = _Certifier("simulate_two_period", 2e-3, 5e-3)
    for name, model in cases:
        for kind in (AgentKind.MYOPIC, AgentKind.STRATEGIC):
            analytic = simulate_two_period(model, kind)
            oracle = brute_force_two_period(model, kind, 1e-3, 1e-3)
            ok, why = _traces_agree(analytic, oracle, cert.v_tolerance, cert.value_tolerance)
            if ok:
                cert.match()
            else:
                cert.mismatch(
                    f"{name} {kind.value}",
                    _trace_brief(analytic),
                    f"{_trace_brief(oracle)} ({why})",
                )
    return cert.report()


def _trace_brief(trace: TimelineTrace) -> str:
    marks = "".join(
        ("H" if r.effort is EffortLevel.HIGH else "L") if r.employed else "x"
        for r in trace.records
    )
    return f"[{marks}] v={trace.records[0].investment:.4g}"


def certify_continuous(
    cases: list[tuple[str, ContinuousEffortModel]],
    step: float = 1e-4,
    seed: int = 0,
) -> OracleReport:
    """Stationarity of induced contracts plus optimizer-vs-grid agreement."""
    cert = _Certifier("principal_optimal_effort", 1e-4, 1e-6)
    rng = np.random.default_rng(seed)
    for name, cmodel in cases:
        for e in rng.uniform(cmodel.e_min, cmodel.e_max, size=3):
            residual = foc_residual(cmodel, float(e), contract_for_effort(cmodel, float(e)))
            if abs(residual) > 1e-10:
                cert.mismatch(f"{name} e={e:.6g}", f"residual={residual:.3e}", "0")
            else:
                cert.match()
        sol = principal_optimal_effort(cmodel)
        oe, ovalue = brute_force_effort(cmodel, step)
        cert.record(
            name,
            abs(sol.e_opt - oe),
            abs(sol.principal_surplus - ovalue),
            f"e={sol.e_opt:.6g}",
            f"e={oe:.6g}",
        )
    return cert.report()


# ---------------------------------------------------------------------------
# Full certification run (the `verify` subcommand)
# ---------------------------------------------------------------------------


def run_certification(
    seed: int = 12345,
    n_models: int = 200,
    oracle_step: float | None = None,
) -> list[OracleReport]:
    """Certify every analytic operation against its brute-force counterpart
    over the canonical fixtures plus seeded random instances.

    ``oracle_step`` overrides the grid step of the investment, regime and
    effort oracles (their defaults are 1e-4, 1e-3 and 1e-4); the payment
    enumeration stays at its own resolution because the contract tolerance
    is tied to it.  A run enumerates the payments of each ``(model, v)``
    once: the contract report and both two-period traces of a model share
    an enumeration at the same investment.  A step that is not positive
    and finite, or a negative ``n_models``, raises :class:`DomainError`.
    """
    if oracle_step is not None:
        _check_step("oracle_step", oracle_step)
    if n_models < 0:
        raise DomainError(f"n_models must be >= 0, got {n_models}")
    steps = (1e-4, 1e-3, 1e-4) if oracle_step is None else (oracle_step,) * 3
    fixtures = [("f1", f1()), ("f2", f2()), ("f3", f3()), ("f4", f4())]

    contract_cases = [
        (name, model, v)
        for name, model in fixtures
        for v in (0.0, model.v_max / 2.0, model.v_max)
    ]

    randoms = [
        (f"random-{i}", m) for i, m in enumerate(random_models(n_models, seed))
    ]
    two_period_random = [
        (f"random2p-{i}", m)
        for i, m in enumerate(
            random_models(min(n_models, 50), seed + 1, min_retention_margin=5e-3)
        )
    ]
    continuous_cases = [("f5", f5())] + [
        (f"randomc-{i}", m)
        for i, m in enumerate(random_continuous_models(min(n_models, 100), seed + 2))
    ]

    enumerated = _ENUMERATED.set({})
    try:
        return [
            certify_contract(contract_cases),
            certify_investment(fixtures + randoms, step=steps[0]),
            certify_regimes(randoms, step=steps[1]),
            certify_two_period([("f1", f1()), ("f2", f2())] + two_period_random),
            certify_continuous(continuous_cases, step=steps[2], seed=seed + 3),
        ]
    finally:
        _ENUMERATED.reset(enumerated)
