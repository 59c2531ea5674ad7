"""Generative workload model calibrated to the published F-DATA statistics.

The paper analyzes 2.2 million jobs submitted to Fugaku between December 1,
2023 and March 31, 2024.  That trace is not available offline, so this
module generates a synthetic trace reproducing every distributional property
the paper's results depend on (DESIGN.md §2):

- **volume & timing** — uniform submission rate with weekly modulation and
  the early-February maintenance shutdown (Fig. 2);
- **class balance** — ≈3.4x more memory-bound than compute-bound jobs,
  stable over time (Fig. 4, Table II);
- **frequency habits** — boost/normal mode chosen per user habit, largely
  uncorrelated with the job's roofline position (Fig. 5, Table II);
- **roofline scatter** — most jobs far below the ceilings, a few
  well-engineered clusters near them (Fig. 3);
- **template structure** — jobs arrive in *batches of identical jobs*
  (§V-C.c, the root cause of the random-vs-latest θ sampling gap);
- **workload drift** — job templates are born, die, and slowly wander on
  the roofline plane with a ≈30-day self-similarity horizon (the reason a
  sliding training window beats a growing one, §V-C.a/b).

The mechanism: traffic is produced by per-user *job templates* (a recurring
job script).  A template fixes the submission features (user name, job
name, #nodes, #cores, environment, requested frequency) and carries a
latent operational-intensity mean that drifts over its lifetime; each
execution jitters around it.  Counters are synthesized backwards from the
roofline placement through the exact inverse of Equations 4-5, so the
downstream Job Characterizer consumes raw ``perf2..perf5`` exactly as it
would on the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.fugaku.apps import AppArchetype, APP_CATALOG
from repro.fugaku.counters import counters_from_flops_bytes
from repro.fugaku.system import FUGAKU
from repro.fugaku.trace import JobTrace
from repro.fugaku.users import UserPopulation, UserProfile

__all__ = ["WorkloadConfig", "JobTemplate", "WorkloadGenerator", "generate_trace", "DAY_SECONDS"]

#: Seconds per day; trace time is seconds since 2023-12-01 00:00:00.
DAY_SECONDS = 86_400.0

#: Day indices (since Dec 1, 2023) of notable calendar points.
DEC_1, JAN_1, FEB_1, MAR_1, APR_1 = 0, 31, 62, 91, 122


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic trace.

    ``scale`` linearly scales job volume, user count and template count
    relative to the paper's full trace (2.2 M jobs).  The time axis is never
    scaled: all experiments keep the paper's real day arithmetic (α, β in
    days).
    """

    scale: float = 1.0 / 30.0
    seed: int = 2024
    #: trace span in days (Dec 1 2023 .. Mar 31 2024 inclusive = 122 days)
    n_days: int = APR_1
    #: total jobs at scale=1.0
    full_scale_jobs: int = 2_200_000
    #: [start, end) day indices of the scheduled maintenance shutdown
    maintenance_days: tuple[int, int] = (66, 69)
    #: mean template lifetime in days (exponential)
    template_lifetime_days: float = 32.0
    #: mean jobs contributed by one template over one day it is active;
    #: controls batch sizes and the number of concurrently active templates
    jobs_per_template_day: float = 3.5
    #: per-execution operational-intensity jitter multiplier (1.0 = catalog)
    job_noise_scale: float = 1.25
    #: template drift-slope multiplier over the catalog values
    drift_scale: float = 0.8
    #: mean days between abrupt regime changes of a template (a user
    #: editing their recurring script); jumps are the dominant source of
    #: long-horizon workload change, while the day-to-day workload stays
    #: self-similar (the ≈30-day horizon of §V-C.a)
    regime_change_interval_days: float = 55.0
    #: log10 op-intensity jump size (stddev) at a regime change
    regime_change_sigma: float = 0.55
    #: probability a template uses a generic script name ("run.sh", ...)
    #: shared across unrelated users — the collisions that break the
    #: (job name, #cores) lookup baseline of §V-C.a while the full feature
    #: set (user, environment, nodes, frequency) stays discriminative
    generic_name_prob: float = 0.55

    @property
    def n_jobs(self) -> int:
        n = int(round(self.full_scale_jobs * self.scale))
        if n <= 0:
            raise ValueError("scale too small: zero jobs")
        return n

    @property
    def n_users(self) -> int:
        # "hundreds of users" at full scale; sublinear scaling keeps small
        # traces from degenerating to one user per template.
        return max(12, int(round(400 * self.scale**0.5)))

    def day_to_time(self, day: float) -> float:
        """Convert a day index to trace seconds."""
        return float(day) * DAY_SECONDS

    def time_to_day(self, t) -> np.ndarray:
        """Convert trace seconds to (float) day indices; vectorized."""
        return np.asarray(t, dtype=np.float64) / DAY_SECONDS


@dataclass
class JobTemplate:
    """A recurring job script: fixed submission features, latent roofline state."""

    template_id: int
    user: UserProfile
    app: AppArchetype
    job_name: str
    environment: str
    nodes_req: int
    cores_req: int
    freq_req_ghz: float
    #: log10 operational intensity at birth and drift slope per day
    op_mu0: float
    op_slope: float
    #: per-execution log10 jitter
    job_sigma: float
    #: template-level fraction of roofline-attainable performance
    efficiency: float
    #: lognormal duration parameters
    duration_mu: float
    duration_sigma: float
    #: per-node power scale at normal mode, W
    power_node_w: float
    #: SVE / read fractions used when synthesizing counters
    sve_fraction: float
    read_fraction: float
    birth_day: float
    death_day: float
    weight: float
    #: abrupt regime changes: sorted days and the jump applied at each
    change_days: tuple = ()
    change_offsets: tuple = ()
    #: probability the template submits at all on a given active day —
    #: templates are bursty; a recurring script may sit quiet for weeks,
    #: which is why a 15-day window misses jobs a 30-day window still
    #: covers (the KNN α=30 optimum of §V-C.a)
    daily_prob: float = 1.0

    def op_mu_at(self, day: float) -> float:
        """Latent log10 operational-intensity mean on a given day.

        Slow linear wander plus the abrupt regime changes that occurred
        before ``day``.
        """
        mu = self.op_mu0 + self.op_slope * (day - self.birth_day)
        for t, off in zip(self.change_days, self.change_offsets):
            if t <= day:
                mu += off
        return mu


class WorkloadGenerator:
    """Build a :class:`JobTrace` from a :class:`WorkloadConfig`.

    Generation is deterministic given the config (all randomness flows from
    ``config.seed``).  Jobs run on Fugaku's nodes (:data:`FUGAKU`) and
    draw their applications from :data:`APP_CATALOG`.  The heavy lifting —
    per-job roofline placement, flops/bytes synthesis and the Eq. 4/5
    inversion — is vectorized per template-day batch.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.users = UserPopulation(self.config.n_users, self._rng)
        self.templates = self._build_templates()

    # -- template population ---------------------------------------------------

    #: generic script names shared across users and domains
    GENERIC_NAMES = (
        "run.sh", "job.sh", "submit.sh", "a.out", "test.sh", "exp.sh",
        "batch.sh", "main.sh", "start.sh", "go.sh",
    )

    def _make_job_name(self, app: AppArchetype, rng: np.random.Generator) -> str:
        if rng.random() < self.config.generic_name_prob:
            return self.GENERIC_NAMES[int(rng.integers(len(self.GENERIC_NAMES)))]
        tokens = app.name_tokens
        t1 = tokens[int(rng.integers(len(tokens)))]
        t2 = tokens[int(rng.integers(len(tokens)))]
        style = int(rng.integers(4))
        n = int(rng.integers(1, 999))
        if style == 0:
            return f"run_{t1}_{t2}{n:03d}.sh"
        if style == 1:
            return f"{t1}-{t2}-v{n % 20}"
        if style == 2:
            return f"{app.name.split('-')[0]}_{t1}_{n:03d}"
        return f"job_{t1}{n:04d}"

    def _build_templates(self) -> list[JobTemplate]:
        cfg, rng = self.config, self._rng
        # Expected concurrently-active templates A satisfies
        # jobs/day ≈ A * jobs_per_template_day; template-days available per
        # template ≈ lifetime, so T ≈ A * (span + lifetime) / lifetime.
        jobs_per_day = cfg.n_jobs / cfg.n_days
        active = max(8.0, jobs_per_day / cfg.jobs_per_template_day)
        span = cfg.n_days + cfg.template_lifetime_days
        n_templates = max(12, int(round(active * span / cfg.template_lifetime_days)))

        weights = self.users.activity_weights()
        user_idx = rng.choice(len(self.users), size=n_templates, p=weights)

        templates: list[JobTemplate] = []
        ridge_log = np.log10(FUGAKU.ridge_point)
        for tid in range(n_templates):
            user = self.users[int(user_idx[tid])]
            app_i = int(rng.choice(len(APP_CATALOG), p=user.app_affinity))
            app = APP_CATALOG[app_i]
            nodes = int(rng.choice(app.node_choices, p=app.node_probs))
            # single-node jobs sometimes under-request cores
            if nodes == 1 and rng.random() < 0.35:
                cores = int(rng.choice([1, 4, 12, 24]))
            else:
                cores = nodes * FUGAKU.cores_per_node
            op_mu0 = app.op_mu + rng.normal(0.0, app.op_sigma)
            # frequency habit: keyed to the archetype's *typical* side of the
            # ridge, not the job's actual placement -> Fig 5 decorrelation
            typical_compute = op_mu0 > ridge_log
            boost_p = user.boost_prob_compute if typical_compute else user.boost_prob_memory
            # frequencies_ghz[-1] is the boost mode (2.2 GHz), [0] the
            # normal mode (2.0 GHz)
            freqs = FUGAKU.frequencies_ghz
            freq = freqs[-1] if rng.random() < boost_p else freqs[0]
            birth = float(rng.uniform(-cfg.template_lifetime_days, cfg.n_days - 1))
            death = birth + float(rng.exponential(cfg.template_lifetime_days))
            n_changes = int(
                rng.poisson((death - birth) / cfg.regime_change_interval_days)
            )
            change_days = sorted(
                float(rng.uniform(birth, death)) for _ in range(n_changes)
            )
            templates.append(
                JobTemplate(
                    template_id=tid,
                    user=user,
                    app=app,
                    job_name=self._make_job_name(app, rng),
                    environment=app.environments[int(rng.integers(len(app.environments)))],
                    nodes_req=nodes,
                    cores_req=cores,
                    freq_req_ghz=freq,
                    op_mu0=op_mu0,
                    op_slope=float(rng.normal(0.0, app.drift_sigma * cfg.drift_scale)),
                    change_days=tuple(change_days),
                    change_offsets=tuple(
                        float(rng.normal(0.0, cfg.regime_change_sigma))
                        for _ in change_days
                    ),
                    job_sigma=app.job_sigma * cfg.job_noise_scale,
                    efficiency=float(np.clip(rng.beta(app.eff_alpha, app.eff_beta), 1e-4, 1.0)),
                    duration_mu=app.duration_mu + float(rng.normal(0.0, 0.5)),
                    duration_sigma=0.35,
                    power_node_w=app.power_base_w * float(rng.lognormal(0.0, 0.15)),
                    sve_fraction=float(np.clip(rng.beta(8.0, 2.0), 0.05, 0.999)),
                    read_fraction=float(np.clip(rng.beta(6.0, 4.0), 0.05, 0.95)),
                    birth_day=birth,
                    death_day=death,
                    weight=float(rng.lognormal(0.0, 0.45)),
                    daily_prob=(
                        # ~40% sporadic templates resurface after quiet
                        # weeks (why a 30-day window beats 15 for KNN);
                        # the rest submit most days
                        float(rng.uniform(0.04, 0.15))
                        if rng.random() < 0.35
                        else float(rng.uniform(0.40, 1.0))
                    ),
                )
            )
        return templates

    # -- daily volume -----------------------------------------------------------

    def daily_job_counts(self) -> np.ndarray:
        """Number of jobs submitted on each day of the trace (Fig. 2 shape)."""
        cfg, rng = self.config, np.random.default_rng(self.config.seed + 1)
        days = np.arange(cfg.n_days)
        weekly = np.array([1.06, 1.10, 1.10, 1.06, 1.00, 0.80, 0.74])
        w = weekly[days % 7] * rng.lognormal(0.0, 0.12, size=cfg.n_days)
        lo, hi = cfg.maintenance_days
        w[(days >= lo) & (days < hi)] *= 0.02
        w /= w.sum()
        counts = rng.multinomial(cfg.n_jobs, w)
        return counts

    # -- job synthesis -----------------------------------------------------------

    def _batch_jobs(self, tpl: JobTemplate, day: int, count: int, rng: np.random.Generator) -> dict:
        """Vectorized synthesis of ``count`` executions of one template on one day."""
        day_start = day * DAY_SECONDS
        # one batch: clustered submit times within the day
        start = rng.uniform(0.0, DAY_SECONDS * 0.9)
        gaps = rng.exponential(45.0, size=count)
        submit = day_start + np.minimum(start + np.cumsum(gaps), DAY_SECONDS - 1.0)

        op_log = tpl.op_mu_at(day) + rng.normal(0.0, tpl.job_sigma, size=count)
        op = 10.0**op_log
        attainable = np.minimum(FUGAKU.peak_gflops_node, FUGAKU.peak_membw_gbs * op)
        eff = np.clip(tpl.efficiency * rng.lognormal(0.0, 0.18, size=count), 1e-5, 1.0)
        p_node = eff * attainable          # GFlops/s per node
        mb_node = p_node / op              # GB/s per node

        duration = np.clip(
            rng.lognormal(tpl.duration_mu, tpl.duration_sigma, size=count), 30.0, 3 * DAY_SECONDS
        )
        wait = rng.exponential(180.0, size=count)  # ≈3 min average scheduling wait (§V-C.a)
        start_t = submit + wait
        end_t = start_t + duration

        nodes = tpl.nodes_req
        flops = p_node * 1e9 * duration * nodes
        moved = mb_node * 1e9 * duration * nodes
        perf2, perf3, perf4, perf5 = counters_from_flops_bytes(
            flops, moved,
            sve_fraction=tpl.sve_fraction, read_fraction=tpl.read_fraction,
        )

        boost = 1.10 if FUGAKU.is_boost(tpl.freq_req_ghz) else 1.0
        power = tpl.power_node_w * nodes * boost * (0.75 + 0.5 * eff)

        return {
            "submit_time": submit,
            "start_time": start_t,
            "end_time": end_t,
            "duration": duration,
            "perf2": perf2,
            "perf3": perf3,
            "perf4": perf4,
            "perf5": perf5,
            "power_avg_w": power,
            "nodes_req": np.full(count, tpl.nodes_req, dtype=np.int64),
            "cores_req": np.full(count, tpl.cores_req, dtype=np.int64),
            "nodes_alloc": np.full(count, tpl.nodes_req, dtype=np.int64),
            "freq_req_ghz": np.full(count, tpl.freq_req_ghz),
            "user_name": np.full(count, tpl.user.user_name, dtype=object),
            "job_name": np.full(count, tpl.job_name, dtype=object),
            "environment": np.full(count, tpl.environment, dtype=object),
            "template_id": np.full(count, tpl.template_id, dtype=np.int64),
            "app": np.full(count, tpl.app.name, dtype=object),
        }

    def _day_parts(
        self,
        day: int,
        n_day: int,
        rng: np.random.Generator,
        births: np.ndarray,
        deaths: np.ndarray,
        weights: np.ndarray,
        daily_probs: np.ndarray,
    ) -> list[dict]:
        """One day's template draws as per-template column batches."""
        alive = (births <= day) & (day < deaths)
        bursty = rng.random(len(self.templates)) < daily_probs
        active = np.flatnonzero(alive & bursty)
        if active.size == 0:
            active = np.flatnonzero(alive)
        if active.size == 0:
            # pathological tiny configs: fall back to all templates
            active = np.arange(len(self.templates))
        # Heavy-tailed per-day bursts: Fugaku jobs arrive in batches of
        # identical jobs, and on any given day one template can grab a
        # large share of the volume.  This burstiness is what makes
        # "latest θ" subsampling collapse onto few distinct jobs
        # (Figs. 9-10: random sampling beats latest).
        w = weights[active] * rng.lognormal(0.0, 1.0, size=active.size)
        counts = rng.multinomial(n_day, w / w.sum())
        parts = []
        for k in np.flatnonzero(counts):
            tpl = self.templates[int(active[k])]
            parts.append(self._batch_jobs(tpl, day, int(counts[k]), rng))
        return parts

    def generate_stream(self) -> Iterator[JobTrace]:
        """Yield the trace one submit-sorted day-batch at a time.

        Concatenating every yielded batch reproduces :meth:`generate`
        bit for bit: the RNG call sequence is shared, submit times never
        cross a day boundary (each day's are clamped below the next day's
        start), so per-day stable sorting plus sequential job ids equals
        one global stable sort.  Peak memory is one day of jobs, never
        the month — the only way to produce an F-DATA-scale trace
        without holding 2.2 M jobs at once.  Empty days yield nothing.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 2)
        daily = self.daily_job_counts()

        births = np.array([t.birth_day for t in self.templates])
        deaths = np.array([t.death_day for t in self.templates])
        weights = np.array([t.weight for t in self.templates])
        daily_probs = np.array([t.daily_prob for t in self.templates])

        next_id = 1
        for day in range(cfg.n_days):
            n_day = int(daily[day])
            if n_day == 0:
                continue
            parts = self._day_parts(
                day, n_day, rng, births, deaths, weights, daily_probs
            )
            cols: dict[str, np.ndarray] = {}
            for key in parts[0]:
                cols[key] = np.concatenate([p[key] for p in parts])
            order = np.argsort(cols["submit_time"], kind="stable")
            cols = {k: v[order] for k, v in cols.items()}
            cols["job_id"] = np.arange(
                next_id, next_id + len(order), dtype=np.int64
            )
            next_id += len(order)
            yield JobTrace(cols)

    def generate(self) -> JobTrace:
        """Generate the full trace, sorted by submission time.

        The materializing boundary over :meth:`generate_stream`; use the
        stream directly when the trace only needs to be seen one day at
        a time.
        """
        batches = list(self.generate_stream())
        return JobTrace(
            {
                key: np.concatenate([b[key] for b in batches])
                for key in batches[0].column_names
            }
        )


def generate_trace(
    scale: float = 1.0 / 30.0, seed: int = 2024, **overrides
) -> JobTrace:
    """Convenience wrapper: build a trace at a given scale and seed."""
    cfg = WorkloadConfig(scale=scale, seed=seed, **overrides)
    return WorkloadGenerator(cfg).generate()
