"""Baseline averaging dynamics the paper positions itself against.

* :mod:`repro.baselines.voter` — the discrete voter model ([33], [18]);
  the NodeModel with ``k = 1, alpha = 0`` degenerates to it, and the
  scalar :class:`VoterModel` is the oracle of EXP-PRICE's batched voter
  column,
* :mod:`repro.baselines.gossip` — randomized pairwise gossip averaging
  (Boyd et al. [14]): the *coordinated* update the introduction contrasts
  with, which preserves the average exactly (``Var(F) = 0``),
* :mod:`repro.baselines.pushsum` — push-sum ratio consensus for
  sum/average computation (Kempe et al. [35]).

EXP-PRICE runs gossip and push-sum against the NodeModel.
"""

from repro.baselines.gossip import PairwiseGossip
from repro.baselines.pushsum import PushSum
from repro.baselines.voter import VoterModel

__all__ = [
    "PairwiseGossip",
    "PushSum",
    "VoterModel",
]
