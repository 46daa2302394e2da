"""The paper's three motivating services (Section 2), as framework plug-ins.

* :mod:`repro.services.vod` — video-on-demand: a session streams frames of
  one movie; the context is the playback position, rate and pause state.
* :mod:`repro.services.education` — distance education: a session studies
  one topic; the context is the current learning object, quiz grades, and
  the adaptive detail level.
* :mod:`repro.services.search` — refinement search: the context is the
  list of previous result sets, which later queries narrow or combine.

:mod:`repro.services.ledger` is a diagnostic service, not one of the
paper's: its context is the set of update counters a session absorbed, so
the Section-4 loss run can count each lost update.

:mod:`repro.services.content` provides synthetic content-unit generators
(movies with I/P/B frame structure, topics with learning objects, document
corpora); :mod:`repro.services.workload` drives client behaviour.
"""

from repro.services.content import (
    Corpus,
    LearningObject,
    Movie,
    Topic,
    build_corpus,
    build_movie,
    build_topic,
)
from repro.services.education import EducationApplication
from repro.services.ledger import LedgerApplication, LedgerState
from repro.services.search import SearchApplication
from repro.services.vod import VodApplication, VodSessionState

__all__ = [
    "Corpus",
    "EducationApplication",
    "LearningObject",
    "LedgerApplication",
    "LedgerState",
    "Movie",
    "SearchApplication",
    "Topic",
    "VodApplication",
    "VodSessionState",
    "build_corpus",
    "build_movie",
    "build_topic",
]
