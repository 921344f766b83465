"""Cut-down de Bruijn sequences.

A cut-down de Bruijn sequence is a cyclic k-ary sequence of length L, with
k^(n-1) < L <= k^n, in which every length-n window occurs at most once.
This package generates them by cycle joining over the pure cycling register
(one rule for every alphabet, joining t of the weight-m period-h cycles:
either the first t met, or the t with the largest Lyndon words, which
makes the successor context-free), and provides the supporting counting,
ranking and verification machinery.
"""

from .counting import (
    count_lyndon,
    count_strings,
    count_weight_at_most,
    count_weight_period,
    count_weight_period_at_most,
    mobius,
)
from .cutplan import CutParams, CutSet, cut_set, derive_params, marker_word
from .engine import SequenceSpec, VerifyReport, generate, verify
from .ranking import enumerate_lyndon, rank_lyndon, unrank_lyndon
from .successor import cut_down_successor, mc_step, pcr3, pcr3_alt
from .words import is_necklace, least_rotation, period, rotate, weight

__all__ = [
    "CutParams",
    "CutSet",
    "SequenceSpec",
    "VerifyReport",
    "count_lyndon",
    "count_strings",
    "count_weight_at_most",
    "count_weight_period",
    "count_weight_period_at_most",
    "cut_down_successor",
    "cut_set",
    "derive_params",
    "enumerate_lyndon",
    "generate",
    "is_necklace",
    "least_rotation",
    "marker_word",
    "mc_step",
    "mobius",
    "pcr3",
    "pcr3_alt",
    "period",
    "rank_lyndon",
    "rotate",
    "unrank_lyndon",
    "verify",
    "weight",
]

__version__ = "0.1.0"
