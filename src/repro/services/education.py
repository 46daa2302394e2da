"""Distance education: the paper's second example service.

A session studies one *topic* (the content unit).  The session context is
the student's place in the topic: which object is open, the quiz grades so
far, and the adaptive detail level ("the service may provide more detailed
explanations if the last quiz grade is low").  All responses are immediate
reactions to client requests — this exercises the framework's
request/response path rather than the streaming path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.application import RequestResponseApplication, ResponseBody
from repro.services.content import Topic
from repro.wiretypes import wire


@wire(35)
@dataclass(frozen=True, slots=True)
class EducationSessionState:
    unit_id: str
    current_object: int = 0
    detail_level: int = 1  # 1 normal, 2 detailed (after poor quiz results)
    grades: tuple[int, ...] = ()
    visited: tuple[int, ...] = ()
    responses_emitted: int = 0


class EducationApplication(RequestResponseApplication):
    """Education plug-in over a catalog of topics.

    Client updates:

    * ``{"op": "open", "object": k}`` — download object *k*; the response
      body includes extra explanation when the detail level is raised;
    * ``{"op": "answer", "object": k, "answer": a}`` — grade a quiz; a low
      grade raises the detail level and triggers a remedial response;
    * ``{"op": "follow", "link": i}`` — follow the i-th hyper-link of the
      current object;
    * ``{"op": "next"}`` — advance to the next object.
    """

    def __init__(self, topics: dict[str, Topic]) -> None:
        self.topics = dict(topics)

    def topic(self, unit_id: str) -> Topic:
        return self.topics[unit_id]

    def initial_state(self, unit_id: str, params: Any) -> EducationSessionState:
        params = params or {}
        return EducationSessionState(
            unit_id=unit_id, current_object=int(params.get("start_object", 0))
        )

    def apply_update(
        self, state: EducationSessionState, update: Any
    ) -> EducationSessionState:
        topic = self.topics[state.unit_id]
        op = update.get("op")
        if op == "open":
            target = int(update["object"])
            if topic.get(target) is None:
                return state
            return replace(
                state,
                current_object=target,
                visited=state.visited + (target,),
            )
        if op == "answer":
            quiz = topic.get(int(update["object"]))
            if quiz is None or quiz.kind != "quiz":
                return state
            grade = 100 if update.get("answer") == quiz.answer else 25
            detail = 2 if grade < 50 else 1
            return replace(
                state, grades=state.grades + (grade,), detail_level=detail
            )
        if op == "follow":
            obj = topic.get(state.current_object)
            if obj is None or not obj.links:
                return state
            target = obj.links[int(update.get("link", 0)) % len(obj.links)]
            return replace(
                state, current_object=target, visited=state.visited + (target,)
            )
        if op == "next":
            nxt = min(state.current_object + 1, len(topic.objects) - 1)
            return replace(
                state, current_object=nxt, visited=state.visited + (nxt,)
            )
        return state

    def respond_to_update(
        self, state: EducationSessionState, update: Any
    ) -> tuple[EducationSessionState, list[ResponseBody]]:
        topic = self.topics[state.unit_id]
        op = update.get("op")
        responses: list[ResponseBody] = []
        if op in ("open", "follow", "next"):
            obj = topic.get(state.current_object)
            if obj is not None:
                body = {"object": obj.object_id, "kind": obj.kind, "body": obj.body}
                if state.detail_level > 1:
                    body["extra_detail"] = f"detailed:{obj.object_id}"
                responses.append(
                    ResponseBody(
                        index=state.responses_emitted,
                        klass="object",
                        body=body,
                        size=8 if state.detail_level > 1 else 4,
                    )
                )
        elif op == "answer":
            grade = state.grades[-1] if state.grades else 0
            responses.append(
                ResponseBody(
                    index=state.responses_emitted,
                    klass="feedback",
                    body={"grade": grade, "detail_level": state.detail_level},
                    size=2,
                )
            )
            if grade < 50:
                remedial = topic.get(max(0, state.current_object - 1))
                if remedial is not None:
                    responses.append(
                        ResponseBody(
                            index=state.responses_emitted + 1,
                            klass="remedial",
                            body={"object": remedial.object_id, "body": remedial.body},
                            size=6,
                        )
                    )
        if responses:
            state = replace(
                state, responses_emitted=state.responses_emitted + len(responses)
            )
        return state, responses

    def is_finished(self, state: EducationSessionState) -> bool:
        topic = self.topics[state.unit_id]
        return len(set(state.visited)) >= len(topic.objects)


__all__ = ["EducationApplication", "EducationSessionState"]
