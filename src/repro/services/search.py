"""Refinement search: the paper's third example service.

"A search service which allows a client to make successively narrower
queries by restricting the search in one query to within the result set of
earlier ones ... in general, the session context is the list of previous
result sets."  The context unit is a document corpus; every query response
carries the new result set's index so later updates can reference it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.application import RequestResponseApplication, ResponseBody
from repro.services.content import Corpus
from repro.wiretypes import wire


@wire(36)
@dataclass(frozen=True, slots=True)
class SearchSessionState:
    unit_id: str
    result_sets: tuple[tuple[int, ...], ...] = ()
    answered: int = 0  # result sets already reported to the client

    def result(self, index: int) -> list[int] | None:
        if 0 <= index < len(self.result_sets):
            return list(self.result_sets[index])
        return None


class SearchApplication(RequestResponseApplication):
    """Search plug-in over a catalog of corpora.

    Client updates:

    * ``{"op": "query", "terms": [...]}`` — fresh query over the corpus;
    * ``{"op": "refine", "base": k, "terms": [...]}`` — query restricted
      to result set *k*;
    * ``{"op": "after", "base": k, "year": y}`` — publication-date filter
      over result set *k* (the paper's example);
    * ``{"op": "intersect", "a": i, "b": j}`` — intersection of two
      earlier result sets (the paper's other example).

    Every operation appends a result set to the context and returns it.
    """

    def __init__(self, corpora: dict[str, Corpus]) -> None:
        self.corpora = dict(corpora)

    def corpus(self, unit_id: str) -> Corpus:
        return self.corpora[unit_id]

    def initial_state(self, unit_id: str, params: Any) -> SearchSessionState:
        return SearchSessionState(unit_id=unit_id)

    def _evaluate(self, state: SearchSessionState, update: Any) -> list[int] | None:
        corpus = self.corpora[state.unit_id]
        op = update.get("op")
        if op == "query":
            return corpus.matching(set(update.get("terms", ())))
        if op == "refine":
            base = state.result(int(update.get("base", -1)))
            if base is None:
                return None
            return corpus.matching(set(update.get("terms", ())), within=base)
        if op == "after":
            base = state.result(int(update.get("base", -1)))
            if base is None:
                return None
            return corpus.after_year(int(update.get("year", 0)), within=base)
        if op == "intersect":
            a = state.result(int(update.get("a", -1)))
            b = state.result(int(update.get("b", -1)))
            if a is None or b is None:
                return None
            b_set = set(b)
            return [doc for doc in a if doc in b_set]
        return None

    def apply_update(
        self, state: SearchSessionState, update: Any
    ) -> SearchSessionState:
        result = self._evaluate(state, update)
        if result is None:
            return state
        return replace(
            state, result_sets=state.result_sets + (tuple(result),)
        )

    def respond_to_update(
        self, state: SearchSessionState, update: Any
    ) -> tuple[SearchSessionState, list[ResponseBody]]:
        # apply_update already appended the result of a *valid* update (the
        # framework applies before responding); report any not-yet-answered
        # sets.  Invalid updates appended nothing and get no response.
        responses: list[ResponseBody] = []
        for index in range(state.answered, len(state.result_sets)):
            result_set = state.result_sets[index]
            responses.append(
                ResponseBody(
                    index=index,
                    klass="result",
                    body={"result_set": index, "doc_ids": list(result_set)},
                    size=1 + len(result_set) // 10,
                )
            )
        if responses:
            state = replace(state, answered=len(state.result_sets))
        return state, responses


__all__ = ["SearchApplication", "SearchSessionState"]
