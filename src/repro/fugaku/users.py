"""User and project population model for the synthetic workload.

Fugaku is used by "hundreds of users, submitting thousands of jobs every
day" (paper §IV-A).  Users are not interchangeable: each has a home domain
(biasing which application archetypes their job templates draw from), a
Zipf-like activity level, and stable naming habits.  The *user name* is one
of the five submission features of the paper's encoder, and its predictive
value comes exactly from this per-user consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fugaku.apps import APP_CATALOG, catalog_weights

__all__ = ["UserProfile", "UserPopulation"]

_GROUPS = ("riken", "univ", "jcahpc", "corp", "intl")
_PROJECTS = ("ra", "rb", "hp", "gp", "ex")


@dataclass(frozen=True)
class UserProfile:
    """A single synthetic user."""

    user_name: str
    group: str
    #: probability over the archetype catalog this user's templates draw from
    app_affinity: np.ndarray
    #: relative share of the system's job traffic
    activity: float
    #: probability that this user requests boost mode, given the archetype's
    #: typical label; indexed by ("memory", "compute")
    boost_prob_memory: float
    boost_prob_compute: float


class UserPopulation:
    """Generate and hold a population of synthetic Fugaku users.

    Parameters
    ----------
    n_users:
        Population size ("hundreds" at full scale; scaled down with the
        trace).
    rng:
        Source of randomness; the population is fully determined by it.
        Users draw their workloads from :data:`APP_CATALOG`.
    boost_prob_memory, boost_prob_compute:
        Population-mean probabilities of requesting boost mode (2.2 GHz)
        for templates whose archetype is typically memory- or compute-bound.
        The defaults are calibrated to Table II of the paper: ≈45.8% of
        memory-bound and ≈30.8% of compute-bound jobs run in boost mode —
        i.e. users pick frequencies that do *not* track the job's actual
        roofline position (§IV-C, Fig. 5).
    """

    def __init__(
        self,
        n_users: int,
        rng: np.random.Generator,
        *,
        boost_prob_memory: float = 0.458,
        boost_prob_compute: float = 0.308,
    ) -> None:
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        self._users: list[UserProfile] = []
        base_weights = catalog_weights(APP_CATALOG)
        k = len(APP_CATALOG)

        # Zipf-ish activity: a few heavy users dominate traffic.
        ranks = np.arange(1, n_users + 1, dtype=np.float64)
        activity = 1.0 / ranks**0.6
        activity /= activity.sum()
        order = rng.permutation(n_users)

        for i in range(n_users):
            group = _GROUPS[int(rng.integers(len(_GROUPS)))]
            project = _PROJECTS[int(rng.integers(len(_PROJECTS)))]
            uid = int(rng.integers(100, 10_000))
            name = f"{group}-{project}{uid:04d}"
            # Dirichlet around the catalog weights: users specialize in a
            # couple of domains but occasionally run others.
            affinity = rng.dirichlet(base_weights * 14.0 + 0.05)
            assert affinity.shape == (k,)
            bm = float(np.clip(rng.normal(boost_prob_memory, 0.15), 0.02, 0.98))
            bc = float(np.clip(rng.normal(boost_prob_compute, 0.15), 0.02, 0.98))
            self._users.append(
                UserProfile(
                    user_name=name,
                    group=group,
                    app_affinity=affinity,
                    activity=float(activity[order[i]]),
                    boost_prob_memory=bm,
                    boost_prob_compute=bc,
                )
            )

    def __len__(self) -> int:
        return len(self._users)

    def __getitem__(self, i: int) -> UserProfile:
        return self._users[i]

    @property
    def users(self) -> list[UserProfile]:
        return list(self._users)

    def activity_weights(self) -> np.ndarray:
        """Traffic share per user, normalized to sum to 1."""
        w = np.array([u.activity for u in self._users], dtype=np.float64)
        return w / w.sum()

    def sample_user(self, rng: np.random.Generator) -> UserProfile:
        """Draw one user proportionally to activity."""
        idx = rng.choice(len(self._users), p=self.activity_weights())
        return self._users[int(idx)]
