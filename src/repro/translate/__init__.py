"""The paper's query translations with correctness guarantees.

* :mod:`repro.translate.conditions` — the condition translations
  ``θ → θ*`` (certainly true) and ``θ → θ**`` (possibly true), in both
  the theoretical (marked-null) form and the SQL-adjusted form of
  Section 7.
* :mod:`repro.translate.libkin` — the Figure 2 translation
  ``Q → (Qt, Qf)`` of [Libkin, TODS 2016], reproduced to demonstrate its
  Section 5 infeasibility.
* :mod:`repro.translate.improved` — the paper's contribution: the
  implementation-friendly Figure 3 translation ``Q → (Q+, Q?)``
  (Theorem 1).
* :mod:`repro.translate.simplify` — the key rule ``R ▷⇑ S → R − S``
  used to derive the appendix rewrites.
"""

from repro.translate.conditions import translate_certain, translate_possible
from repro.translate.libkin import translate_libkin
from repro.translate.improved import translate_improved, certain_query, possible_query
from repro.translate.simplify import key_antijoin_to_difference

__all__ = [
    "translate_certain",
    "translate_possible",
    "translate_libkin",
    "translate_improved",
    "certain_query",
    "possible_query",
    "key_antijoin_to_difference",
]
