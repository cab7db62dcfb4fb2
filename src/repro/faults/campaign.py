"""The campaign runner: (scenario x policy x replication) fan-out.

A campaign turns the scenario zoo into one flat list of picklable
:class:`~repro.exec.jobs.ReplicationJob`\\ s -- each carrying its
scenario as the job's ``faults`` payload -- and fans it out through an
:class:`~repro.exec.backends.ExecutionBackend`.  Common random numbers:
replication ``i`` of scenario ``s`` uses master seed
``seed + 1000 * s_index + i`` *for every policy*, so policies face
literally the same arrival and service streams and score differences
are pure policy effects (the same protocol as the figure sweeps).
Results come back in submission order on every backend, so campaign
scores are bit-identical between serial and process-pool runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.spec import PolicySpec
from repro.ecommerce.metrics import RunResult
from repro.exec.backends import ExecutionBackend
from repro.exec.jobs import ReplicationJob, run_jobs
from repro.exec.progress import ProgressHook
from repro.faults.scenario import FaultScenario
from repro.faults.score import PolicyScore, format_scores, score_policy
from repro.faults.zoo import (
    builtin_scenarios,
    check_horizon,
    check_scenario_name,
    get_scenario,
    scenario_names,
)

#: The paper's three contenders at their Section-5.6 parameters.
DEFAULT_POLICIES: Dict[str, PolicySpec] = {
    "SRAA": PolicySpec.sraa(2, 5, 3),
    "SARAA": PolicySpec.saraa(2, 5, 3),
    "CLTA": PolicySpec.clta(30, z=1.96),
}


def resolve_policies(spec: str) -> Dict[str, PolicySpec]:
    """A ``--policies`` CSV as an ordered ``label -> PolicySpec`` dict.

    Names matching :data:`DEFAULT_POLICIES` (case-insensitive) get the
    paper's Section-5.6 parameters under their canonical upper-case
    label; exact (lower-case) factory names build at factory defaults;
    the detector labels of :data:`repro.detect.DETECTOR_POLICIES`
    (``ADAPTIVE``, ``ENTROPY``, ``TREND``) match case-insensitively
    after that, so ``trend`` stays the paper-era Mann-Kendall factory
    policy while every other spelling of ``TREND`` means the
    projection detector.  Raises ``ValueError`` naming every valid
    spelling on unknown names or an empty list -- shared by ``repro
    faults run --policies`` and the serve campaign endpoint so both
    surfaces accept exactly the same spellings.
    """
    from repro.core.factory import available_policies
    from repro.detect import DETECTOR_POLICIES

    policies: Dict[str, PolicySpec] = {}
    for name in (part.strip() for part in spec.split(",")):
        if not name:
            continue
        if name.upper() in DEFAULT_POLICIES:
            policies[name.upper()] = DEFAULT_POLICIES[name.upper()]
        elif name in available_policies():
            # Exact factory names keep their factory defaults (so the
            # paper-era ``trend`` policy stays reachable even though
            # ``TREND`` is the projection detector's canonical label).
            policies[name] = PolicySpec(name)
        elif name.upper() in DETECTOR_POLICIES:
            policies[name.upper()] = DETECTOR_POLICIES[name.upper()]
        elif name.lower() in available_policies():
            policies[name] = PolicySpec(name.lower())
        else:
            labels = (
                tuple(DEFAULT_POLICIES)
                + tuple(DETECTOR_POLICIES)
                + available_policies()
            )
            raise ValueError(
                f"unknown policy {name!r}; valid spellings: "
                f"{', '.join(labels)}"
            )
    if not policies:
        raise ValueError(f"no policy names in {spec!r}")
    return policies


class CampaignRequest(NamedTuple):
    """A campaign as both front doors launch it.

    :func:`validate_campaign` builds one: ``scenarios`` is then a list
    of zoo names and ``policies`` a CSV.  The field defaults are those
    of ``POST /api/campaigns``; ``repro faults run`` passes its own
    (5 replications).  ``slo`` (seconds) arms the serve plane's flight
    recorder.
    """

    scenarios: Any = "all"
    policies: Any = "SRAA,SARAA,CLTA"
    replications: int = 2
    seed: int = 0
    horizon: float = 900.0
    slo: Optional[float] = None


def _typed(name: str, value: Any, kind: Any, what: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _names(name: str, value: Any) -> List[str]:
    names = value
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    if not names or not isinstance(names, list) or not all(
        isinstance(item, str) for item in names
    ):
        raise ValueError(
            f"{name} must be a CSV or a non-empty list of names, "
            f"got {value!r}"
        )
    return names


def validate_campaign(params: Mapping[str, Any]) -> CampaignRequest:
    """The one campaign validator of both front doors.

    ``params`` holds any :class:`CampaignRequest` field: ``scenarios``
    ("all", a CSV or a list of zoo names), ``policies`` (a CSV or a
    list; see :func:`resolve_policies`), integers ``replications``
    (>= 1) and ``seed``, a number ``horizon`` and a number or ``None``
    ``slo``.  Raises ``ValueError`` naming the offending field.
    """
    if not isinstance(params, Mapping):
        raise ValueError("campaign parameters must be a JSON object")
    unknown = set(params) - set(CampaignRequest._fields)
    if unknown:
        raise ValueError(f"unknown campaign parameter(s): {sorted(unknown)}")
    raw = CampaignRequest(**params)
    if raw.scenarios == "all":
        scenarios = list(scenario_names())
    else:
        scenarios = [
            check_scenario_name(name)
            for name in _names("scenarios", raw.scenarios)
        ]
    policies = ",".join(_names("policies", raw.policies))
    try:
        resolve_policies(policies)
    except ValueError as error:
        raise ValueError(f"policies: {error}") from None
    replications = _typed("replications", raw.replications, int, "an integer")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    number = (int, float)
    horizon = _typed("horizon", raw.horizon, number, "a number")
    slo = raw.slo
    return raw._replace(
        scenarios=scenarios,
        policies=policies,
        seed=_typed("seed", raw.seed, int, "an integer"),
        horizon=check_horizon(horizon),
        slo=None if slo is None else float(
            _typed("slo", slo, number, "a number or null")
        ),
    )


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced, in submission order.

    ``scores`` is the deliverable; ``runs`` keeps the raw per-cell
    replications keyed by ``(scenario_name, policy_label)`` for deeper
    digging.
    """

    scores: Tuple[PolicyScore, ...]
    runs: Tuple[Tuple[Tuple[str, str], Tuple[RunResult, ...]], ...]

    def runs_for(self, scenario: str, policy: str) -> Tuple[RunResult, ...]:
        """The raw replications of one (scenario, policy) cell."""
        for key, cell in self.runs:
            if key == (scenario, policy):
                return cell
        raise KeyError(f"no campaign cell ({scenario!r}, {policy!r})")

    def format_table(self) -> str:
        """The aligned robustness table over every cell."""
        return format_scores(self.scores)

    def merged_live(self):
        """All cells' live aggregators folded in submission order."""
        from repro.obs.live import merge_live

        return merge_live(
            run.live for _, cell in self.runs for run in cell
        )

    def merged_profile(self):
        """All cells' DES profiles folded in submission order."""
        from repro.obs.live import merge_profiles

        return merge_profiles(
            run.profile for _, cell in self.runs for run in cell
        )


def campaign_jobs(
    scenarios: Sequence[FaultScenario],
    policies: Mapping[str, PolicySpec],
    replications: int,
    seed: int = 0,
    live: Optional[object] = None,
    profile: bool = False,
    system: Optional[object] = None,
) -> List[ReplicationJob]:
    """The flat job list, in (scenario, policy, replication) order.

    The CRN seed protocol lives here: ``seed + 1000 * scenario_index +
    replication``, independent of the policy -- every policy sees the
    same streams on the same scenario cell.

    ``live`` (a :class:`repro.obs.live.LiveSpec`) and ``profile`` stamp
    every cell's jobs with live telemetry / DES profiling, exactly as
    in :func:`repro.ecommerce.runner.replication_jobs`.

    ``system`` selects the substrate (a kind name or a
    :class:`~repro.systems.SystemSpec`; ``None`` keeps the single
    Section-3 node).  A substrate that scales arrivals with its node
    count also scales each scenario's transaction budget (see
    ``SystemSpec.job_transactions``), so the simulated time horizon --
    and with it the scenario's scripted fault times -- is preserved.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if not scenarios:
        raise ValueError("need at least one scenario")
    if not policies:
        raise ValueError("need at least one policy")
    spec = None
    if system is not None:
        from repro.systems import resolve_system

        spec = resolve_system(system)
    jobs: List[ReplicationJob] = []
    for s_index, scenario in enumerate(scenarios):
        n_transactions = scenario.n_transactions
        if spec is not None:
            n_transactions = spec.job_transactions(n_transactions)
        for label, policy in policies.items():
            for i in range(replications):
                jobs.append(
                    ReplicationJob(
                        config=scenario.config,
                        arrival=scenario.arrival,
                        policy=policy,
                        n_transactions=n_transactions,
                        seed=seed + 1000 * s_index + i,
                        tag=("faults", scenario.name, label, i),
                        faults=scenario,
                        live=live,
                        profile=profile,
                        system=spec,
                    )
                )
    return jobs


def run_campaign(
    scenarios: Optional[Sequence[FaultScenario]] = None,
    policies: Optional[Mapping[str, PolicySpec]] = None,
    replications: int = 5,
    seed: int = 0,
    backend: Union[ExecutionBackend, str, None] = None,
    progress: Optional[ProgressHook] = None,
    live: Optional[object] = None,
    profile: bool = False,
    system: Optional[object] = None,
) -> CampaignResult:
    """Run and score a full campaign.

    Parameters
    ----------
    scenarios:
        Scenario list; ``None`` runs the whole built-in zoo at the
        default one-hour horizon.
    policies:
        ``label -> PolicySpec``; ``None`` uses the paper's three
        contenders (:data:`DEFAULT_POLICIES`).
    replications:
        Replications per (scenario, policy) cell (the paper uses 5).
    seed:
        Campaign master seed (see :func:`campaign_jobs` for the CRN
        protocol).
    backend:
        Execution backend (instance, name, or ``None`` for the
        installed/environment default).
    system:
        Substrate every cell runs against: ``None`` (single node), a
        kind name from :data:`repro.systems.SYSTEM_KINDS`, or a
        configured spec -- the campaign, the CRN protocol, and the
        robustness scoring are substrate-polymorphic.

    The jobs run through :func:`repro.exec.jobs.run_jobs`: under an
    installed :class:`~repro.obs.session.TraceSession` they are traced
    and ingested, so ``repro faults run --trace`` produces a narratable
    JSONL file.
    """
    if scenarios is None:
        scenarios = list(builtin_scenarios().values())
    if policies is None:
        policies = DEFAULT_POLICIES
    jobs = campaign_jobs(
        scenarios,
        policies,
        replications,
        seed=seed,
        live=live,
        profile=profile,
        system=system,
    )
    runs = run_jobs(jobs, backend, progress)
    scores: List[PolicyScore] = []
    cells: List[Tuple[Tuple[str, str], Tuple[RunResult, ...]]] = []
    cursor = 0
    for scenario in scenarios:
        for label in policies:
            cell = tuple(runs[cursor : cursor + replications])
            cursor += replications
            scores.append(score_policy(scenario, label, cell))
            cells.append(((scenario.name, label), cell))
    return CampaignResult(scores=tuple(scores), runs=tuple(cells))


class CampaignEntry(NamedTuple):
    """A campaign's ledger entry parts, for ``Ledger.append(*entry)``."""

    manifest: Any
    outcomes: Dict[str, Any]
    timing: Dict[str, Any]


def run_request(
    request: CampaignRequest,
    extra_scenarios: Sequence[FaultScenario] = (),
    backend: Union[ExecutionBackend, str, None] = None,
    progress: Optional[ProgressHook] = None,
    live: Optional[object] = None,
    profile: bool = False,
    system: Optional[object] = None,
) -> Tuple[CampaignResult, CampaignEntry]:
    """Run a validated campaign; returns it and its ledger entry parts.

    The request's zoo scenarios, laid out at its horizon, come first,
    then ``extra_scenarios`` (``repro faults run --scenario-file``);
    the other arguments go to :func:`run_campaign` unchanged.
    """
    from repro.obs.ledger import (
        campaign_manifest,
        campaign_outcomes,
        timing_block,
    )

    scenarios = [
        get_scenario(name, request.horizon) for name in request.scenarios
    ] + list(extra_scenarios)
    policies = resolve_policies(request.policies)
    counts = (request.replications, request.seed)
    started = time.perf_counter()
    campaign = run_campaign(
        scenarios, policies, *counts, backend, progress, live, profile, system
    )
    timing = timing_block(
        time.perf_counter() - started,
        campaign.merged_profile() if profile else None,
    )
    manifest = campaign_manifest(
        scenarios, policies, *counts, backend=backend, system=system
    )
    return campaign, CampaignEntry(
        manifest, campaign_outcomes(campaign), timing
    )


# ---------------------------------------------------------------------------
# Re-scoring from a JSONL trace (``repro faults score``, ``repro report``)
# ---------------------------------------------------------------------------
#: Fault kinds that *are* software aging: an injection of one of these
#: opens a ground-truth degraded interval (workload shifts, surges,
#: crashes and hangs are confounders, not degradation).
AGING_FAULT_KINDS: Tuple[str, ...] = (
    "aging",
    "contamination",
    "erosion",
    "slowdown",
)


def degraded_intervals_from_records(
    run_records: Sequence[dict],
) -> Tuple[Tuple[float, float], ...]:
    """Ground-truth degraded intervals from one run's own fault events.

    Every ``fault.injected`` event with an aging kind
    (:data:`AGING_FAULT_KINDS`) opens an interval; a matching
    ``fault.cleared`` closes it, otherwise it runs to infinity --
    exactly how the zoo scenarios lay out their ground truth, but
    recoverable from any campaign trace without knowing the horizon
    the campaign ran at.
    """
    import math as _math

    from repro.obs.events import FAULT_CLEARED, FAULT_INJECTED

    opened: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    for record in run_records:
        kind = record.get("data", {}).get("kind")
        if kind not in AGING_FAULT_KINDS:
            continue
        if record["type"] == FAULT_INJECTED and kind not in opened:
            opened[kind] = record["ts"]
        elif record["type"] == FAULT_CLEARED and kind in opened:
            intervals.append((opened.pop(kind), record["ts"]))
    intervals.extend((ts, _math.inf) for ts in opened.values())
    return tuple(sorted(intervals))


def campaign_runs_from_records(
    source, origin: str = "trace"
) -> List[Tuple[Tuple[str, ...], List[dict], RunResult]]:
    """Campaign replications reconstructed from a trace.

    ``source`` is anything :func:`repro.obs.columnar.query.as_query`
    accepts: a flat list of JSONL record dicts, a columnar trace, or an
    already-built query.  Returns ``(tag, fault_records, result)``
    triples in run order for every run tagged ``("faults", scenario,
    policy, rep)``; each result's trigger times come from its
    ``system.rejuvenation`` span events, its summary from ``run.meta``,
    and ``fault_records`` holds the run's ``fault.injected`` /
    ``fault.cleared`` events (the ground-truth inputs of
    :func:`degraded_intervals_from_records`).
    """
    from repro.obs.columnar.query import as_query
    from repro.obs.events import (
        FAULT_CLEARED,
        FAULT_INJECTED,
        SYSTEM_REJUVENATION,
    )

    replications: List[Tuple[Tuple[str, ...], List[dict], RunResult]] = []
    for view in as_query(source).run_views():
        meta = view.meta
        if meta is None:
            raise ValueError(
                f"{origin}: run {view.run_id} has no run.meta record"
            )
        tag = tuple(meta.get("tag") or ())
        if len(tag) < 4 or tag[0] != "faults":
            continue  # not a campaign replication
        summary = meta.get("data", {})
        triggers = tuple(
            float(ts) for ts in view.ts_of(SYSTEM_REJUVENATION)
        )
        if summary.get("rejuvenations", 0) and not triggers:
            raise ValueError(
                f"{origin}: run {view.run_id} reports rejuvenations but "
                "the trace has no system.rejuvenation events -- re-run "
                "the campaign with --trace-level spans or all"
            )
        result = RunResult(
            arrivals=int(summary.get("arrivals", 0)),
            completed=int(summary.get("completed", 0)),
            lost=int(summary.get("lost", 0)),
            avg_response_time=float(
                summary.get("avg_response_time", 0.0)
            ),
            rt_std=0.0,
            max_response_time=0.0,
            loss_fraction=float(summary.get("loss_fraction", 0.0)),
            gc_count=int(summary.get("gc_count", 0)),
            rejuvenations=int(summary.get("rejuvenations", 0)),
            sim_duration_s=float(summary.get("sim_duration_s", 0.0)),
            rejuvenation_times=triggers,
        )
        faults = view.records(types=(FAULT_INJECTED, FAULT_CLEARED))
        replications.append((tag, faults, result))
    return replications


def score_records(source) -> Tuple[PolicyScore, ...]:
    """Robustness scores from a trace, horizon-free.

    Each replication is scored against ground truth derived from its
    *own* aging fault events (:func:`degraded_intervals_from_records`),
    so no scenario horizon needs to be supplied -- this is what the
    ``repro report`` robustness section renders.  ``source`` is
    records, a columnar trace, or a query (see
    :func:`campaign_runs_from_records`).  Returns an empty tuple when
    the trace holds no campaign replications.
    """
    from repro.faults.score import score_cell

    cells: Dict[Tuple[str, str], List[RunResult]] = {}
    intervals: Dict[Tuple[str, str], List[Tuple[Tuple[float, float], ...]]] = {}
    for tag, fault_records, result in campaign_runs_from_records(source):
        key = (str(tag[1]), str(tag[2]))
        cells.setdefault(key, []).append(result)
        intervals.setdefault(key, []).append(
            degraded_intervals_from_records(fault_records)
        )
    return tuple(
        score_cell(scenario, policy, cells[key], intervals[key])
        for key in cells
        for scenario, policy in (key,)
    )


def score_trace(
    path: str, horizon_s: float = 3600.0
) -> Tuple[PolicyScore, ...]:
    """Re-score a ``repro faults run --trace`` file (either format).

    Rebuilds each replication's trigger times from its
    ``system.rejuvenation`` span events and its duration from the
    ``run.meta`` summary, groups by the ``("faults", scenario, policy,
    rep)`` job tags, and scores against the built-in scenario's ground
    truth laid out for ``horizon_s`` (pass the value the campaign ran
    with).  The trace may be JSONL or columnar; both score
    identically.
    """
    from repro.obs.columnar.query import load_query

    cells: Dict[Tuple[str, str], List[RunResult]] = {}
    for tag, _fault_records, result in campaign_runs_from_records(
        load_query(path), origin=path
    ):
        cells.setdefault((str(tag[1]), str(tag[2])), []).append(result)

    if not cells:
        raise ValueError(
            f"{path}: no campaign replications found (expected run.meta "
            "tags of the form ('faults', scenario, policy, rep))"
        )
    scores = []
    for (scenario_name, policy_label), results in cells.items():
        scenario = get_scenario(scenario_name, horizon_s)
        scores.append(score_policy(scenario, policy_label, results))
    return tuple(scores)
